//! Concurrency contract of the sharded, lock-free anonymizer: many
//! client threads hammering one shared `AnonymizerService` must each get
//! a receipt that deanonymizes back to exactly the segment they asked to
//! cloak, and the batch pipeline must be bit-identical to sequential
//! execution at any worker count.

use anonymizer::{
    AnonymizeRequest, AnonymizerConfig, AnonymizerService, Deanonymizer, Engine, EngineChoice,
};
use keystream::{Level, TrustDegree};
use mobisim::OccupancySnapshot;
use roadnet::{grid_city, SegmentId};
use std::sync::Arc;

const THREADS: usize = 8;
const REQUESTS_PER_THREAD: usize = 32;

/// ≥ 8 threads × ≥ 32 requests against one shared service; every
/// receipt must deanonymize back to its exact segment through the normal
/// key-fetch path, while the other threads anonymize, register, fetch
/// and reduce.
#[test]
fn stress_every_receipt_deanonymizes_to_its_exact_segment() {
    let net = grid_city(10, 10, 100.0);
    let segment_count = net.segment_count() as u32;
    let service = Arc::new(AnonymizerService::new(net, AnonymizerConfig::default()));
    service.update_snapshot(OccupancySnapshot::uniform(segment_count as usize, 1));
    let dean = Arc::new(Deanonymizer::new(
        service.network_arc(),
        Engine::build(service.network(), service.config().engine),
    ));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let dean = Arc::clone(&dean);
            std::thread::spawn(move || {
                for i in 0..REQUESTS_PER_THREAD {
                    let owner = format!("owner-{t}-{i}");
                    let segment = SegmentId(((t * 37 + i * 13) as u32) % segment_count);
                    let seed = 0xc0ffee ^ ((t * REQUESTS_PER_THREAD + i) as u64);
                    let receipt = service
                        .anonymize_seeded(&owner, segment, None, seed)
                        .unwrap_or_else(|e| panic!("{owner}: {e}"));
                    assert!(receipt.payload.contains(segment), "{owner}");
                    // Full key-management round trip, racing the other
                    // threads' anonymizations on the sharded maps.
                    assert!(service.register_requester(
                        &owner,
                        "police",
                        TrustDegree(10),
                        Level(0)
                    ));
                    let keys = service.fetch_keys(&owner, "police").unwrap();
                    let view = dean.reduce(&receipt.payload, &keys).unwrap();
                    assert_eq!(view.level, Level(0), "{owner}");
                    assert_eq!(view.segments, vec![segment], "{owner}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("stress thread panicked");
    }

    assert_eq!(service.owner_count(), THREADS * REQUESTS_PER_THREAD);
    // Every grant landed in the requester registry.
    assert_eq!(
        service.requester_grants("police").len(),
        THREADS * REQUESTS_PER_THREAD
    );
}

/// Seeded property check: for both engines, one and four batch workers,
/// and many seeds, `anonymize_batch` must produce exactly the receipts
/// that sequential `anonymize_seeded` calls produce for the same
/// requests.
#[test]
fn batch_is_identical_to_sequential_given_the_same_nonces() {
    for engine in [EngineChoice::Rge, EngineChoice::Rple { t_len: 10 }] {
        for (batch_parallelism, trial) in [1usize, 4]
            .into_iter()
            .flat_map(|p| (0u64..8).map(move |t| (p, t)))
        {
            let net = grid_city(8, 8, 100.0);
            let segment_count = net.segment_count() as u32;
            let config = AnonymizerConfig {
                engine,
                batch_parallelism,
                ..Default::default()
            };

            // Pseudo-random request mix derived from the trial number.
            let mut state = 0x5eed_0000 + trial;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state >> 33
            };
            let requests: Vec<AnonymizeRequest> = (0..48)
                .map(|i| {
                    AnonymizeRequest::new(
                        format!("owner-{trial}-{i}"),
                        SegmentId(next() as u32 % segment_count),
                        next(),
                    )
                })
                .collect();

            let parallel = AnonymizerService::new(net.clone(), config.clone());
            parallel.update_snapshot(OccupancySnapshot::uniform(net.segment_count(), 1));
            let batch = parallel.anonymize_batch(&requests);

            let sequential = AnonymizerService::new(net.clone(), config);
            sequential.update_snapshot(OccupancySnapshot::uniform(net.segment_count(), 1));
            for (req, batch_result) in requests.iter().zip(&batch) {
                let solo = sequential.anonymize_seeded(
                    &req.owner,
                    req.segment,
                    req.profile.as_ref(),
                    req.seed,
                );
                match (batch_result, solo) {
                    (Ok(b), Ok(s)) => {
                        let ctx = format!("{engine:?} x{batch_parallelism} {}", req.owner);
                        assert_eq!(b.payload, s.payload, "{ctx}");
                        let stored = parallel.owner_record(&req.owner).unwrap();
                        assert_eq!(stored.payload, b.payload, "{ctx}");
                        assert_eq!(b.outcome.chain, s.outcome.chain, "{ctx}");
                        assert_eq!(b.attempts, s.attempts, "{ctx}");
                    }
                    (Err(b), Err(s)) => {
                        assert_eq!(b, &s, "{engine:?} x{batch_parallelism} {}", req.owner)
                    }
                    (b, s) => panic!(
                        "{engine:?} x{batch_parallelism} {}: batch {b:?} vs sequential {s:?} disagree",
                        req.owner
                    ),
                }
            }
        }
    }
}

/// A batch repeating the same owner must give that owner consecutive
/// chain epochs in request order and leave the stored record (and thus
/// fetch_keys) matching the *last* request — sequential semantics — at
/// any worker count.
#[test]
fn duplicated_owner_in_a_batch_stores_the_last_request() {
    let net = grid_city(8, 8, 100.0);
    let mut requests: Vec<AnonymizeRequest> = (0..16)
        .map(|i| AnonymizeRequest::new(format!("o{i}"), SegmentId(i * 5 % 100), 3_000 + i as u64))
        .collect();
    // "dup" appears three times with different seeds and segments.
    requests.insert(2, AnonymizeRequest::new("dup", SegmentId(7), 111));
    requests.insert(9, AnonymizeRequest::new("dup", SegmentId(30), 222));
    requests.push(AnonymizeRequest::new("dup", SegmentId(55), 333));

    for batch_parallelism in [1usize, 4] {
        // Repeated rounds give the four workers different schedules.
        for round in 0..4 {
            let ctx = format!("x{batch_parallelism} round {round}");
            let config = AnonymizerConfig {
                batch_parallelism,
                ..Default::default()
            };
            let service = AnonymizerService::new(net.clone(), config);
            service.update_snapshot(OccupancySnapshot::uniform(net.segment_count(), 1));
            let results = service.anonymize_batch(&requests);
            let epochs: Vec<u64> = requests
                .iter()
                .zip(&results)
                .filter(|(r, _)| r.owner == "dup")
                .map(|(_, res)| res.as_ref().unwrap().payload.epoch)
                .collect();
            assert_eq!(epochs, [1, 2, 3], "{ctx}");
            assert_eq!(service.owner_epoch("dup"), Some(3), "{ctx}");
            let last = results.last().unwrap().as_ref().unwrap();
            let stored = service.owner_record("dup").unwrap();
            assert_eq!(stored.payload, last.payload, "{ctx}");
            assert!(stored.payload.contains(SegmentId(55)), "{ctx}");
        }
    }
}

/// Snapshot swaps racing anonymizations must never block or corrupt
/// either side: requests started under the old snapshot finish under it.
#[test]
fn snapshot_swaps_race_cleanly_with_anonymizations() {
    let net = grid_city(8, 8, 100.0);
    let segment_count = net.segment_count();
    let service = Arc::new(AnonymizerService::new(net, AnonymizerConfig::default()));
    service.update_snapshot(OccupancySnapshot::uniform(segment_count, 1));

    std::thread::scope(|scope| {
        let swapper = {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for round in 0..200u32 {
                    service
                        .update_snapshot(OccupancySnapshot::uniform(segment_count, 1 + round % 5));
                }
            })
        };
        for t in 0..4 {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for i in 0..32u64 {
                    let owner = format!("racer-{t}-{i}");
                    let receipt = service
                        .anonymize_seeded(&owner, SegmentId((t * 29 + i as u32 * 7) % 100), None, i)
                        .unwrap();
                    assert!(receipt.payload.region_size() >= 2);
                }
            });
        }
        swapper.join().unwrap();
    });
    assert_eq!(service.owner_count(), 4 * 32);
}
