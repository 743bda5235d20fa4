//! `paper_live`: `ContinuousPipeline` on the paper-scale `atlanta_like`
//! map with every tick leg on — traffic, capture, issue, verify,
//! quality, LBS probes and the attack leg with its NRE control.

use crate::common::{derive, ReadPath, Readers};
use crate::layers::TracedRun;
use crate::replica::{Replica, ReplicaTick};
use crate::ticks::{self, Tick};
use crate::trace::{self, span};
use crate::{Args, Report};
use anonymizer::{AnonymizerConfig, AttackConfig, ContinuousPipeline, PipelineConfig, TickReport};
use cloak::AdversaryMode;
use keystream::MemStore;
use mobisim::{CarId, SimConfig};
use roadnet::{atlanta_like, RoadNetwork};
use std::sync::Arc;
use std::time::Instant;

/// Map and traffic are fixed, so every run simulates the same city;
/// the run seed drives the owners' request seeds (keys and nonces).
const MAP_SEED: u64 = 42;
const TRAFFIC_SEED: u64 = 42;
const CARS: usize = 10_000;
const OWNERS: usize = 128;
const LBS_PROBES: usize = 16;
const ATTACK_OWNERS: usize = 32;
/// Set-ups per run: each takes about five seconds.
const SETUPS: usize = 3;
const WARMUP_TICKS: usize = 10;
/// The same work in every run, about 40 s on a 2-CPU machine;
/// `tick_ms_p90` has 18 samples beyond it.
const TIMED_TICKS: usize = 180;
const MIN_TRACED_TICKS: usize = 10;

struct Inputs {
    sim: SimConfig,
    anon: AnonymizerConfig,
    pipeline: PipelineConfig,
}

fn inputs(seed: u64) -> Inputs {
    Inputs {
        sim: SimConfig {
            cars: CARS,
            seed: TRAFFIC_SEED,
            ..Default::default()
        },
        anon: AnonymizerConfig::default(),
        pipeline: PipelineConfig {
            tracked_owners: OWNERS,
            seed: derive(seed, 3),
            verify: true,
            lbs_probes: LBS_PROBES,
            attack: Some(AttackConfig {
                mode: AdversaryMode::All,
                owners: ATTACK_OWNERS,
                baseline: true,
                keep_records: false,
            }),
            ..Default::default()
        },
    }
}

fn network() -> RoadNetwork {
    let net = span("roadnet.map", || atlanta_like(MAP_SEED));
    span("roadnet.index", || {
        net.graph_index();
    });
    net
}

impl ticks::Pipeline for ContinuousPipeline {
    fn advance(&mut self) -> Result<Tick, String> {
        let r = self.tick().map_err(|e| e.to_string())?;
        Ok(Tick {
            tick: r.tick,
            issued: r.issued,
            failed: r.failed,
            verified: r.verified,
            digest: r.digest,
        })
    }

    fn read_new(&self, readers: &mut Readers, reads: &mut ReadPath) -> Result<usize, String> {
        let service = self.service();
        readers.read_new(
            |_, _| Ok(&*service),
            |i| self.sim().car_segment(CarId(i as u32)),
            reads,
        )
    }

    fn read_path(&self) -> ReadPath {
        ReadPath::for_service(&self.service())
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return run_traced(args);
    }
    let inputs = inputs(args.seed);
    let (pipeline, setups_s) = ticks::set_up(SETUPS, |_| {
        Ok(ContinuousPipeline::new(
            network(),
            inputs.sim.clone(),
            inputs.anon.clone(),
            inputs.pipeline.clone(),
        ))
    })?;
    ticks::run(args, setups_s, pipeline, OWNERS, WARMUP_TICKS, TIMED_TICKS)
}

/// The traced run: the replica (traced) and the real pipeline
/// (untraced) tick in lockstep from the same inputs; their digests must
/// agree tick for tick.
fn run_traced(args: &Args) -> Result<Report, String> {
    let inputs = inputs(args.seed);
    trace::set_enabled(true);
    let net = network();
    let mut replica = Replica::new(
        net.clone(),
        inputs.sim.clone(),
        inputs.anon.clone(),
        inputs.pipeline.clone(),
        Arc::new(trace::TimingStore::new(MemStore::new())),
    )?;
    trace::set_enabled(false);
    let mut pipeline = ContinuousPipeline::new(
        net,
        inputs.sim.clone(),
        inputs.anon.clone(),
        inputs.pipeline.clone(),
    );
    trace::set_enabled(true);
    let service = Arc::clone(replica.service());
    let mut reads = ReadPath::for_service(&service);
    let mut readers = Readers::new(OWNERS);
    let tracked = pipeline.tracked_owner_count();
    let check = |report: &TickReport| {
        if report.verified != report.issued || report.issued + report.failed != tracked {
            return Err(format!(
                "tick {}: verified {} of {} issued",
                report.tick, report.verified, report.issued
            ));
        }
        Ok(())
    };

    // Returns the untraced tick's wall time and the receipts read.
    let mut lockstep = |replica: &mut Replica, tick: u64| -> Result<(f64, usize), String> {
        let (report, untraced_ms, mine) =
            trace::lockstep(tick, || pipeline.tick(), || span("tick", || replica.tick()));
        let report = report.map_err(|e| e.to_string())?;
        check(&report)?;
        let mine = mine?;
        let expected = ReplicaTick {
            issued: report.issued,
            failed: report.failed,
            verified: report.verified,
            digest: report.digest,
            quality: report.quality,
            lbs: report.lbs,
        };
        if mine != expected {
            return Err(format!(
                "tick {tick}: replica {mine:?} differs from the pipeline's {expected:?}"
            ));
        }
        let fresh = span("reads", || {
            readers.read_new(
                |_, _| Ok(&*service),
                |i| replica.sim().car_segment(CarId(i as u32)),
                &mut reads,
            )
        })?;
        Ok((untraced_ms, fresh))
    };
    for tick in 1..=WARMUP_TICKS as u64 {
        lockstep(&mut replica, tick)?;
    }
    replica.cloak = Default::default();
    replica.lbs = Default::default();

    let phase = Instant::now();
    let (mut ops, mut untraced_ms, mut read) = (0u64, 0.0, 0usize);
    while ops < MIN_TRACED_TICKS as u64 || phase.elapsed().as_secs_f64() < args.seconds {
        ops += 1;
        let (ms, fresh) = lockstep(&mut replica, WARMUP_TICKS as u64 + ops)?;
        untraced_ms += ms;
        read += fresh;
    }
    let spans = trace::take();
    trace::write_tsv(
        std::path::Path::new(".bench_out/spans-paper_live.tsv"),
        &spans,
    )
    .map_err(|e| format!("write spans: {e}"))?;

    let owner_requests = ops * tracked as u64;
    let refused = owner_requests - replica.cloak.receipts;
    let traced = TracedRun {
        spans: &spans,
        root: "tick",
        first_op: WARMUP_TICKS as u64 + 1,
        ops,
        untraced_ms,
        cloak: &replica.cloak,
        owner_requests,
        refused,
        extra: vec![(
            "lbs.segments_visited_mean",
            replica.lbs.mean_segments_visited(),
        )],
    };
    Ok(Report {
        lines: vec![format!(
            "traced {ops} ticks in lockstep with the untraced pipeline: digests equal on every tick"
        )],
        metrics: traced.metrics(),
        attempted: owner_requests + read as u64,
        failed: 0,
        samples: vec![("ticks", ops as usize), ("spans", spans.len())],
    })
}
