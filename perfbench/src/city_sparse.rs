//! `city_sparse`: `ShardedPipeline` with 8 shards on a generated
//! 10,000-segment city with 2,000 cars (0.2 cars per segment, a fifth of
//! the paper map's density): regions grow wide over sparse occupancy,
//! each shard sees only its partition's occupancy, and owners cross
//! partition boundaries.

use crate::common::{CloakStats, ReadPath, Readers};
use crate::layers::TracedRun;
use crate::ticks::{self, Tick};
use crate::trace::{self, span};
use crate::{Args, Report};
use anonymizer::{AnonymizerConfig, AnonymizerService, PipelineConfig, ShardedPipeline};
use keystream::MemStore;
use mobisim::{CarId, SimConfig, Simulation};
use roadnet::{city_map, RoadNetwork};
use std::sync::Arc;
use std::time::Instant;

const SEGMENTS: usize = 10_000;
/// Map, traffic and pipeline seeds are those of the `BENCH_city.json`
/// cells, and the run seed reaches none of them. `PipelineConfig::seed`
/// sets the request seeds and also grows the partition, so a run seed
/// there would move every shard border, and with them the refused owners
/// and the tick time, from run to run.
const MAP_SEED: u64 = 7;
const TRAFFIC_SEED: u64 = 42;
const CARS: usize = 2_000;
const OWNERS: usize = 16;
const SHARDS: usize = 8;
/// Set-ups per run: each takes about a second.
const SETUPS: usize = 5;
const WARMUP_TICKS: usize = 2;
/// The same work in every run, about 40 s on a 2-CPU machine;
/// `tick_ms_p90` has 23 samples beyond it.
const TIMED_TICKS: usize = 230;
const MIN_TRACED_TICKS: usize = 10;

struct Inputs {
    sim: SimConfig,
    anon: AnonymizerConfig,
    pipeline: PipelineConfig,
}

fn inputs() -> Inputs {
    Inputs {
        sim: SimConfig {
            cars: CARS,
            seed: TRAFFIC_SEED,
            ..Default::default()
        },
        anon: AnonymizerConfig::default(),
        pipeline: PipelineConfig {
            tracked_owners: OWNERS,
            verify: true,
            lbs_probes: 0,
            attack: None,
            ..Default::default()
        },
    }
}

fn network() -> RoadNetwork {
    let net = span("roadnet.map", || city_map(MAP_SEED, SEGMENTS));
    span("roadnet.index", || {
        net.graph_index();
    });
    net
}

/// The requester reads after a tick, each owner's receipt fetched from
/// the shard now holding the owner.
fn read_new(
    pipeline: &ShardedPipeline,
    readers: &mut Readers,
    reads: &mut ReadPath,
    truth: impl Fn(usize) -> Option<roadnet::SegmentId>,
) -> Result<usize, String> {
    let services: Vec<Arc<AnonymizerService>> = pipeline.services();
    readers.read_new(
        |_, owner| {
            pipeline
                .owner_shard(owner)
                .map(|s| &*services[s])
                .ok_or_else(|| format!("{owner} is on no shard"))
        },
        truth,
        reads,
    )
}

impl ticks::Pipeline for ShardedPipeline {
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
        read_new(self, readers, reads, |_| None)
    }

    fn read_path(&self) -> ReadPath {
        ReadPath::for_service(&self.services()[0])
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return run_traced(args);
    }
    let inputs = inputs();
    let (pipeline, setups_s) = ticks::set_up(SETUPS, |_| {
        Ok(ShardedPipeline::new(
            network(),
            inputs.sim.clone(),
            inputs.anon.clone(),
            inputs.pipeline.clone(),
            SHARDS,
        ))
    })?;
    ticks::run(args, setups_s, pipeline, OWNERS, WARMUP_TICKS, TIMED_TICKS)
}

/// The traced run. The partition internals are private, so the traced
/// pipeline's tick is one span; a twin `Simulation` from the same inputs
/// steps in lockstep to estimate the traffic step inside it, and the
/// residual is `anonymizer.shard.rest_ms`. An untraced pipeline ticks
/// beside them for the overhead ratio; their digests must agree.
fn run_traced(args: &Args) -> Result<Report, String> {
    let inputs = inputs();
    trace::set_enabled(true);
    let net = network();
    let mut pipeline = span("anonymizer.shard.new", || {
        ShardedPipeline::with_store(
            net.clone(),
            inputs.sim.clone(),
            inputs.anon.clone(),
            inputs.pipeline.clone(),
            SHARDS,
            Arc::new(trace::TimingStore::new(MemStore::new())),
        )
    })
    .map_err(|e| format!("sharded pipeline: {e}"))?;
    let mut twin = span("mobisim.init", || {
        Simulation::new(net.share_index(), inputs.sim.clone())
    });
    trace::set_enabled(false);
    let mut untraced = ShardedPipeline::new(
        net,
        inputs.sim.clone(),
        inputs.anon.clone(),
        inputs.pipeline.clone(),
        SHARDS,
    );
    trace::set_enabled(true);
    let mut reads = ReadPath::for_service(&pipeline.services()[0]);
    let mut readers = Readers::new(OWNERS);
    let dt = inputs.pipeline.dt;
    let partition = pipeline
        .partition()
        .ok_or("8 shards build a partition")?
        .clone();

    // Returns (untraced tick ms, handoffs, refused owners, receipts read).
    let mut lockstep =
        |readers: &mut Readers, tick: u64| -> Result<(f64, u64, u64, usize), String> {
            let (plain, untraced_ms, report) = trace::lockstep(
                tick,
                || untraced.tick(),
                || span("tick", || span("anonymizer.shard.tick", || pipeline.tick())),
            );
            let plain = plain.map_err(|e| e.to_string())?;
            let report = report.map_err(|e| e.to_string())?;
            span("mobisim.step", || twin.step(dt));
            if (report.issued, report.failed, report.verified, report.digest)
                != (plain.issued, plain.failed, plain.issued, plain.digest)
                || report.issued + report.failed != OWNERS
            {
                return Err(format!(
                    "tick {tick}: traced pipeline issued {} failed {} verified {} digest {:016x}, \
                     untraced issued {} failed {} digest {:016x}",
                    report.issued,
                    report.failed,
                    report.verified,
                    report.digest,
                    plain.issued,
                    plain.failed,
                    plain.digest
                ));
            }
            let car = |i: usize| twin.car_segment(CarId(i as u32));
            for i in 0..OWNERS {
                let segment = car(i).ok_or("a tracked car left the twin simulation")?;
                if pipeline.owner_shard(&format!("car-{i}")) != Some(partition.shard_of(segment)) {
                    return Err(format!("tick {tick}: the twin simulation lost lockstep"));
                }
            }
            let fresh = span("reads", || read_new(&pipeline, readers, &mut reads, car))?;
            Ok((
                untraced_ms,
                report.handoffs as u64,
                report.failed as u64,
                fresh,
            ))
        };
    for tick in 1..=WARMUP_TICKS as u64 {
        lockstep(&mut readers, tick)?;
    }
    readers.region_segments.clear();

    let phase = Instant::now();
    let (mut ops, mut untraced_ms, mut handoffs, mut refused, mut read) = (0u64, 0.0, 0, 0, 0);
    while ops < MIN_TRACED_TICKS as u64 || phase.elapsed().as_secs_f64() < args.seconds {
        ops += 1;
        let (ms, moved, failed, fresh) = lockstep(&mut readers, WARMUP_TICKS as u64 + ops)?;
        untraced_ms += ms;
        handoffs += moved;
        refused += failed;
        read += fresh;
    }
    let spans = trace::take();
    trace::write_tsv(
        std::path::Path::new(".bench_out/spans-city_sparse.tsv"),
        &spans,
    )
    .map_err(|e| format!("write spans: {e}"))?;

    let first_op = WARMUP_TICKS as u64 + 1;
    let t = trace::totals(&spans, |s| s.op >= first_op);
    // The twin's step stands for the traffic step inside the sharded tick.
    let mean_ms = |name: &str| {
        t.get(name)
            .map_or(0.0, |x| x.total_ms() / x.calls.max(1) as f64)
    };
    let owner_requests = ops * OWNERS as u64;
    let cloak = CloakStats {
        region_segments: readers.region_segments.clone(),
        ..Default::default()
    };
    let traced = TracedRun {
        spans: &spans,
        root: "tick",
        first_op,
        ops,
        untraced_ms,
        cloak: &cloak,
        owner_requests,
        refused,
        extra: vec![
            (
                "anonymizer.shard.rest_ms",
                mean_ms("anonymizer.shard.tick") - mean_ms("mobisim.step"),
            ),
            (
                "anonymizer.shard.handoffs_per_tick",
                handoffs as f64 / ops as f64,
            ),
        ],
    };
    Ok(Report {
        lines: vec![format!(
            "traced {ops} ticks beside an untraced twin pipeline and simulation: digests equal on every tick"
        )],
        metrics: traced.metrics(),
        attempted: owner_requests + read as u64,
        failed: 0,
        samples: vec![("ticks", ops as usize), ("spans", spans.len())],
    })
}
