//! The `paper_live` tick rebuilt from the layers' public functions, so
//! the traced run can time each call from outside the program.
//!
//! It performs the calls `ContinuousPipeline::tick` makes, in the same
//! order and with the same seeds, for a fault-free pipeline with the
//! attack leg on: traffic step, snapshot capture and swap, the owner
//! batch, digest, region quality and LBS probes, the batched
//! verification, and the keyless adversary with its NRE control. The
//! traced run proves the rebuild faithful by comparing its per-tick
//! counts, digest, quality and LBS rollups with the real pipeline's
//! `TickReport`, tick for tick.

use crate::common::{fnv_fold, mix_seed, splitmix64, CloakStats, FNV_OFFSET};
use crate::trace::{span, span_items};
use anonymizer::pipeline::AUDITOR;
use anonymizer::{
    AnonymizeRequest, AnonymizerConfig, AnonymizerService, AttackConfig, Deanonymizer, Engine,
    PipelineConfig,
};
use cloak::{
    random_expansion_with, AdversaryConfig, CloakError, CloakScratch, ExpansionScratch,
    Observation, PrivacyProfile, QualitySummary, RegionQuality, ReplayProbe, TemporalAdversary,
};
use keystream::{ChainStore, Level, TrustDegree};
use lbs::{nearest_query_with, PoiCategory, PoiStore, QueryStats, SearchScratch};
use mobisim::{CarId, OccupancySnapshot, SimConfig, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use roadnet::{RoadNetwork, SegmentId};
use std::collections::HashSet;
use std::sync::Arc;

/// What one replica tick produced, comparable with `TickReport`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaTick {
    pub issued: usize,
    pub failed: usize,
    pub verified: usize,
    pub digest: u64,
    pub quality: QualitySummary,
    pub lbs: QueryStats,
}

pub struct Replica {
    sim: Simulation,
    service: Arc<AnonymizerService>,
    dean: Deanonymizer,
    profile: PrivacyProfile,
    pois: PoiStore,
    cfg: PipelineConfig,
    attack: AttackConfig,
    tracked: Vec<(CarId, String)>,
    requests: Vec<AnonymizeRequest>,
    registered: HashSet<usize>,
    spare_snapshot: Option<OccupancySnapshot>,
    verify_scratch: CloakScratch,
    lbs_scratch: SearchScratch,
    engine_adversary: TemporalAdversary,
    baseline_adversary: TemporalAdversary,
    baseline_seeds: Vec<u64>,
    nre_scratch: ExpansionScratch,
    tick: u64,
    pub cloak: CloakStats,
    pub lbs: QueryStats,
}

impl Replica {
    /// Mirrors `ContinuousPipeline::with_store` for a fault-free
    /// configuration with LBS probes and the attack leg (with its NRE
    /// control) on.
    pub fn new(
        net: RoadNetwork,
        sim_cfg: SimConfig,
        anon_cfg: AnonymizerConfig,
        cfg: PipelineConfig,
        store: Arc<dyn ChainStore>,
    ) -> Result<Self, String> {
        let mut attack = cfg
            .attack
            .clone()
            .ok_or("the replica mirrors a pipeline with the attack leg on")?;
        if cfg.fault.is_some() || cfg.lbs_probes == 0 || !attack.baseline {
            return Err(
                "the replica mirrors a fault-free pipeline with LBS probes and the NRE control"
                    .into(),
            );
        }
        let top_speed = sim_cfg.speed_range.1;
        let sim = span("mobisim.init", || Simulation::new(net.clone(), sim_cfg));
        let service = span("anonymizer.service", || {
            AnonymizerService::with_store(net, anon_cfg, store)
        })
        .map_err(|e| format!("service: {e}"))?;
        span("mobisim.capture", || {
            service.update_snapshot(OccupancySnapshot::capture(&sim))
        });
        let dean = Deanonymizer::new(
            service.network_arc(),
            Engine::build(service.network(), service.config().engine),
        );
        let profile = service.config().default_profile.clone();
        let pois = {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1b5_0001);
            PoiStore::generate(service.network(), cfg.poi_count.max(1), &mut rng)
        };
        let tracked: Vec<(CarId, String)> = (0..cfg.tracked_owners.min(sim.cars().len()))
            .map(|i| (CarId(i as u32), format!("car-{i}")))
            .collect();
        let requests = tracked
            .iter()
            .map(|(_, owner)| AnonymizeRequest::new(owner.clone(), SegmentId(0), 0))
            .collect();
        attack.owners = attack.owners.min(tracked.len());
        let adversary_cfg = AdversaryConfig {
            mode: attack.mode,
            max_speed: top_speed,
            dt: cfg.dt,
            seed: cfg.seed ^ 0x00ad_5a17,
        };
        let baseline_seeds = (0..attack.owners)
            .map(|i| splitmix64(0x17e_a5ed ^ (i as u64).wrapping_mul(0x100_0003)))
            .collect();
        let engine_adversary = TemporalAdversary::new(service.network(), adversary_cfg.clone());
        let baseline_adversary = TemporalAdversary::new(service.network(), adversary_cfg);
        Ok(Replica {
            sim,
            service: Arc::new(service),
            dean,
            profile,
            pois,
            cfg,
            attack,
            tracked,
            requests,
            registered: HashSet::new(),
            spare_snapshot: None,
            verify_scratch: CloakScratch::new(),
            lbs_scratch: SearchScratch::new(),
            engine_adversary,
            baseline_adversary,
            baseline_seeds,
            nre_scratch: ExpansionScratch::new(),
            tick: 0,
            cloak: CloakStats::default(),
            lbs: QueryStats::new(),
        })
    }

    pub fn service(&self) -> &Arc<AnonymizerService> {
        &self.service
    }

    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// One tick, with a span around every call into a layer.
    pub fn tick(&mut self) -> Result<ReplicaTick, String> {
        self.tick += 1;
        let dt = self.cfg.dt;
        span("mobisim.step", || self.sim.step(dt));

        let cadence = self.cfg.snapshot_cadence.max(1) as u64;
        let snapshot_refreshed = self.tick.is_multiple_of(cadence);
        if snapshot_refreshed {
            span("mobisim.capture", || {
                let mut snap = self
                    .spare_snapshot
                    .take()
                    .unwrap_or_else(|| OccupancySnapshot::from_counts(Vec::new()));
                self.sim.capture_into(&mut snap);
                let previous = self.service.swap_snapshot(snap);
                self.spare_snapshot = Arc::try_unwrap(previous).ok();
            });
        }
        let issuing = self.service.snapshot();

        for (i, ((car, _), request)) in self
            .tracked
            .iter()
            .zip(self.requests.iter_mut())
            .enumerate()
        {
            request.segment = self
                .sim
                .car_segment(*car)
                .ok_or("a tracked car left the simulation")?;
            request.seed = mix_seed(self.cfg.seed, self.tick, i as u64);
        }
        let requests = std::mem::take(&mut self.requests);
        let results = span_items("anonymizer.issue", requests.len(), || {
            self.service.anonymize_batch(&requests)
        });
        if let Some(Err(e)) = results
            .iter()
            .find(|r| matches!(r, Err(CloakError::Persistence(_))))
        {
            return Err(format!("tick {}: journal failure: {e}", self.tick));
        }

        let mut out = ReplicaTick {
            issued: 0,
            failed: 0,
            verified: 0,
            digest: FNV_OFFSET,
            quality: QualitySummary::new(),
            lbs: QueryStats::new(),
        };
        for (i, (request, result)) in requests.iter().zip(&results).enumerate() {
            let Ok(receipt) = result else {
                out.failed += 1;
                continue;
            };
            out.issued += 1;
            self.cloak.record(receipt);
            out.digest = fnv_fold(out.digest, request.owner.as_bytes());
            out.digest = fnv_fold(out.digest, &receipt.payload.encode());
            let quality = span("anonymizer.quality", || {
                RegionQuality::measure(
                    self.service.network(),
                    &issuing,
                    &self.profile,
                    &receipt.outcome,
                )
            });
            out.quality.record(&quality);
            if out.issued - 1 < self.cfg.lbs_probes {
                let category = PoiCategory::ALL[i % PoiCategory::ALL.len()];
                let answer = span("lbs.query", || {
                    nearest_query_with(
                        self.service.network(),
                        &self.pois,
                        &receipt.payload.segments,
                        category,
                        &mut self.lbs_scratch,
                    )
                });
                out.lbs.record(&answer);
            }
        }
        if self.cfg.verify {
            out.verified = span("anonymizer.verify", || {
                self.verify(&requests, &results, &issuing)
            })?;
        }
        span("cloak.attack", || {
            self.attack_leg(&requests, &results, &issuing, snapshot_refreshed)
        });
        self.requests = requests;
        self.lbs.merge(&out.lbs);
        Ok(out)
    }

    /// The batched verification of `ContinuousPipeline::tick`:
    /// k-anonymity at issue time, membership and grant preservation per
    /// receipt, then exact reversibility over one shared scratch.
    fn verify(
        &mut self,
        requests: &[AnonymizeRequest],
        results: &[Result<anonymizer::AnonymizeReceipt, CloakError>],
        issuing: &OccupancySnapshot,
    ) -> Result<usize, String> {
        let tick = self.tick;
        let k = u64::from(self.profile.top_requirement().k);
        let mut jobs = Vec::new();
        for (i, (request, result)) in requests.iter().zip(results).enumerate() {
            let Ok(receipt) = result else { continue };
            let owner = &request.owner;
            let users = issuing.users_in(receipt.payload.segments.iter().copied());
            if users < k {
                return Err(format!("tick {tick}: {owner}: {users} users < k={k}"));
            }
            if !receipt.payload.contains(request.segment) {
                return Err(format!("tick {tick}: {owner}: region misses the owner"));
            }
            if !self.registered.contains(&i) {
                let registered = span("anonymizer.register", || {
                    self.service
                        .register_requester(owner, AUDITOR, TrustDegree(10), Level(0))
                });
                if !registered {
                    return Err(format!("tick {tick}: {owner}: no owner record"));
                }
                self.registered.insert(i);
            }
            let keys = span("anonymizer.fetch_keys", || {
                self.service.fetch_keys(owner, AUDITOR)
            })
            .map_err(|e| format!("tick {tick}: {owner}: grant lost: {e}"))?;
            jobs.push((i, &receipt.payload, keys));
        }
        let dean = &self.dean;
        let scratch = &mut self.verify_scratch;
        let views = span_items("cloak.reduce", jobs.len(), || {
            dean.reduce_batch_with(
                jobs.iter()
                    .map(|(_, payload, keys)| (payload.as_ref(), keys.as_slice())),
                scratch,
            )
        });
        for ((i, _, _), view) in jobs.iter().zip(views) {
            let request = &requests[*i];
            match view {
                Ok(view) if view.segments == [request.segment] => {}
                Ok(view) => {
                    return Err(format!(
                        "tick {tick}: {}: deanonymized to {:?}",
                        request.owner, view.segments
                    ))
                }
                Err(e) => return Err(format!("tick {tick}: {}: {e}", request.owner)),
            }
        }
        Ok(jobs.len())
    }

    /// The keyless adversary observing the engine's receipts and the NRE
    /// control grown from the same true segments.
    fn attack_leg(
        &mut self,
        requests: &[AnonymizeRequest],
        results: &[Result<anonymizer::AnonymizeReceipt, CloakError>],
        issuing: &OccupancySnapshot,
        snapshot_fresh: bool,
    ) {
        let net = self.service.network();
        let owners = self.attack.owners;
        let names = || requests.iter().take(owners).map(|r| r.owner.as_str());
        span("cloak.attack.begin", || {
            self.engine_adversary
                .begin_tick_population(issuing, snapshot_fresh, names());
            self.baseline_adversary
                .begin_tick_population(issuing, snapshot_fresh, names());
        });
        for (i, (request, result)) in requests.iter().zip(results).enumerate().take(owners) {
            let Ok(receipt) = result else { continue };
            span("cloak.attack.observe", || {
                self.engine_adversary.observe(
                    net,
                    &request.owner,
                    Observation {
                        tick: self.tick,
                        region: &receipt.payload.segments,
                        snapshot: issuing,
                        snapshot_fresh,
                    },
                    None,
                    Some(request.segment),
                )
            });
            let requirement = self.profile.top_requirement();
            let seed = self.baseline_seeds[i];
            let mut rng = StdRng::seed_from_u64(seed);
            let control = span("cloak.attack.nre_expand", || {
                random_expansion_with(
                    net,
                    issuing,
                    request.segment,
                    requirement,
                    &mut rng,
                    &mut self.nre_scratch,
                )
            });
            if let Ok(control) = control {
                span("cloak.attack.baseline_observe", || {
                    self.baseline_adversary.observe(
                        net,
                        &request.owner,
                        Observation {
                            tick: self.tick,
                            region: &control.segments,
                            snapshot: issuing,
                            snapshot_fresh,
                        },
                        Some(ReplayProbe { requirement, seed }),
                        Some(request.segment),
                    )
                });
            }
        }
    }
}
