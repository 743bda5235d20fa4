//! Pieces every workload shares: seed derivation, the receipt-stream
//! digest, the requester read path with its correctness checks, and the
//! process's peak memory.

use crate::stats::Samples;
use crate::trace::span;
use anonymizer::{AnonymizerService, Deanonymizer, Engine};
use cloak::{CloakPayload, CloakScratch, PrivacyProfile};
use keystream::{Level, TrustDegree};
use mobisim::OccupancySnapshot;
use roadnet::SegmentId;
use std::time::Instant;

/// SplitMix64 finalizer.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of the generator named `stream`, derived from the run's seed:
/// the run seed reaches the program only through these.
pub fn derive(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

/// The pipeline's per-request seed mix of (base seed, tick, owner index).
pub fn mix_seed(base: u64, tick: u64, idx: u64) -> u64 {
    splitmix64(
        base ^ tick.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ idx.wrapping_mul(0xd1b5_4a32_d192_ed03),
    )
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, chained from `state` (the receipt-stream digest
/// of `TickReport::digest`).
pub fn fnv_fold(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The three requesters that read every issued receipt: full trust
/// walks back to the owner's segment, partial and minimal trust stop at
/// levels 1 and 2.
pub const READERS: [(&str, TrustDegree, Level); 3] = [
    ("reader-full", TrustDegree(10), Level(0)),
    ("reader-partial", TrustDegree(5), Level(1)),
    ("reader-minimal", TrustDegree(2), Level(2)),
];

/// Grants the three readers access to `owner`'s receipts.
pub fn register_readers(service: &AnonymizerService, owner: &str) -> Result<(), String> {
    for (reader, trust, floor) in READERS {
        let ok = span("anonymizer.register", || {
            service.register_requester(owner, reader, trust, floor)
        });
        if !ok {
            return Err(format!(
                "{owner}: no owner record to register {reader} with"
            ));
        }
    }
    Ok(())
}

/// State the read path reuses across receipts.
pub struct ReadPath {
    dean: Deanonymizer,
    profile: PrivacyProfile,
    scratch: CloakScratch,
    /// Latency of every read, in milliseconds.
    pub latency: Samples,
}

impl ReadPath {
    /// A read path for receipts `service` issues: a deanonymizer over its
    /// map and engine, checking against its default profile.
    pub fn for_service(service: &AnonymizerService) -> Self {
        ReadPath {
            dean: Deanonymizer::new(
                service.network_arc(),
                Engine::build(service.network(), service.config().engine),
            ),
            profile: service.config().default_profile.clone(),
            scratch: CloakScratch::new(),
            latency: Samples::default(),
        }
    }

    /// Each of `readers` (indices into [`READERS`], ascending) fetches
    /// its keys, decodes the uploaded receipt bytes and walks back to its
    /// level. Checks that the full-trust view is exactly the owner's
    /// segment (`truth`, or a single segment of the region when the
    /// caller cannot see the car) and that every partial view lies inside
    /// the published region, contains the owner's segment when known, and
    /// covers its level's k users on the `issuing` snapshot.
    pub fn read(
        &mut self,
        service: &AnonymizerService,
        issuing: &OccupancySnapshot,
        owner: &str,
        bytes: &[u8],
        truth: Option<SegmentId>,
        readers: &[usize],
    ) -> Result<(), String> {
        let mut truth = truth;
        for &r in readers {
            let (reader, _, floor) = READERS[r];
            let t0 = Instant::now();
            let keys = span("anonymizer.fetch_keys", || {
                service.fetch_keys(owner, reader)
            })
            .map_err(|e| format!("{owner}/{reader}: fetch_keys: {e}"))?;
            let payload = span("cloak.decode", || CloakPayload::decode(bytes))
                .map_err(|e| format!("{owner}/{reader}: decode: {e}"))?;
            let scratch = &mut self.scratch;
            let dean = &self.dean;
            let view = span("cloak.reduce", || {
                dean.reduce_with(&payload, &keys, scratch)
            })
            .map_err(|e| format!("{owner}/{reader}: reduce: {e}"))?;
            self.latency.push(t0.elapsed().as_secs_f64() * 1e3);

            if view.level != floor {
                return Err(format!(
                    "{owner}/{reader}: reduced to {:?}, expected {floor:?}",
                    view.level
                ));
            }
            if floor == Level(0) {
                match (truth, view.segments.as_slice()) {
                    (Some(t), [s]) if *s == t => {}
                    (None, [s]) if payload.contains(*s) => truth = Some(*s),
                    _ => {
                        return Err(format!(
                            "{owner}/{reader}: full view {:?}, expected exactly {truth:?}",
                            view.segments
                        ))
                    }
                }
                continue;
            }
            if let Some(owner_segment) = truth {
                if !view.segments.contains(&owner_segment) {
                    return Err(format!(
                        "{owner}/{reader}: level {} view misses the owner's segment",
                        floor.0
                    ));
                }
            }
            if !view.segments.iter().all(|&s| payload.contains(s)) {
                return Err(format!(
                    "{owner}/{reader}: level {} view leaves the published region",
                    floor.0
                ));
            }
            let k = self.profile.requirements()[usize::from(floor.0) - 1].k;
            let users = issuing.users_in(view.segments.iter().copied());
            if users < u64::from(k) {
                return Err(format!(
                    "{owner}/{reader}: level {} view covers {users} users < k={k} at issue time",
                    floor.0
                ));
            }
        }
        Ok(())
    }
}

/// The tracked owners (`car-0`, `car-1`, …) as seen by the requesters:
/// after every tick, each receipt issued since the last call is read by
/// one reader that rotates over owners and calls, registering the
/// readers with an owner at its first receipt.
pub struct Readers {
    names: Vec<String>,
    last_epoch: Vec<Option<u64>>,
    calls: usize,
    /// Region size of every receipt read.
    pub region_segments: Vec<f64>,
}

impl Readers {
    pub fn new(owners: usize) -> Self {
        Readers {
            names: (0..owners).map(|i| format!("car-{i}")).collect(),
            last_epoch: vec![None; owners],
            calls: 0,
            region_segments: Vec::new(),
        }
    }

    /// Reads every receipt issued since the last call. `service_of`
    /// names the service holding owner `i`; `truth` gives its car's
    /// segment when the caller can see the car. Returns how many
    /// receipts were new.
    pub fn read_new<'s>(
        &mut self,
        service_of: impl Fn(usize, &str) -> Result<&'s AnonymizerService, String>,
        truth: impl Fn(usize) -> Option<SegmentId>,
        reads: &mut ReadPath,
    ) -> Result<usize, String> {
        let mut fresh = 0;
        self.calls += 1;
        for (i, owner) in self.names.iter().enumerate() {
            let service = service_of(i, owner)?;
            let Some(record) = service.owner_record(owner) else {
                continue;
            };
            if self.last_epoch[i] == Some(record.payload.epoch) {
                continue;
            }
            if self.last_epoch[i].is_none() {
                register_readers(service, owner)?;
            }
            self.last_epoch[i] = Some(record.payload.epoch);
            self.region_segments
                .push(record.payload.segments.len() as f64);
            let bytes = record.payload.encode();
            let reader = [(i + self.calls) % READERS.len()];
            reads.read(
                service,
                &service.snapshot(),
                owner,
                &bytes,
                truth(i),
                &reader,
            )?;
            fresh += 1;
        }
        Ok(fresh)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Region sizes and walk accounting over issued receipts.
#[derive(Debug, Default)]
pub struct CloakStats {
    pub receipts: u64,
    pub attempts: u64,
    pub draws: u64,
    pub voided: u64,
    pub region_segments: Vec<f64>,
}

impl CloakStats {
    pub fn record(&mut self, receipt: &anonymizer::AnonymizeReceipt) {
        self.receipts += 1;
        self.attempts += u64::from(receipt.attempts);
        for level in &receipt.outcome.per_level {
            self.draws += u64::from(level.draws);
            self.voided += u64::from(level.voided);
        }
        self.region_segments
            .push(receipt.payload.segments.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_per_stream_and_repeat() {
        assert_eq!(derive(5, 1), derive(5, 1));
        assert_ne!(derive(5, 1), derive(5, 2));
        assert_ne!(derive(5, 1), derive(6, 1));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of "a".
        assert_eq!(fnv_fold(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
