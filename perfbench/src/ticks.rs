//! The untraced run both pipeline workloads share: repeated set-up,
//! warm-up ticks, then timed ticks with the requester reads after each.

use crate::common::{fnv_fold, ReadPath, Readers, FNV_OFFSET};
use crate::stats::Samples;
use crate::{Args, EndToEnd, Report};
use std::time::Instant;

/// What one tick reported.
pub struct Tick {
    pub tick: u64,
    pub issued: usize,
    pub failed: usize,
    pub verified: usize,
    pub digest: u64,
}

/// A pipeline as the untraced run drives it.
pub trait Pipeline {
    /// Runs one tick.
    fn advance(&mut self) -> Result<Tick, String>;
    /// Reads every receipt issued since the last call; returns how many.
    fn read_new(&self, readers: &mut Readers, reads: &mut ReadPath) -> Result<usize, String>;
    fn read_path(&self) -> ReadPath;
}

/// Builds the system `setups` times, timing each build, and keeps the
/// last; `setup_s` is the median. Earlier builds are dropped first, so
/// peak memory is one build's.
pub fn set_up<T>(
    setups: usize,
    mut build: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(setups);
    let mut last = None;
    for n in 0..setups {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build(n)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.ok_or("no set-up ran")?, times))
}

/// Warm-up, then timed ticks until `min_ticks` ticks and `--seconds`
/// have both passed. The first `min_ticks` ticks make up the `repro`
/// line; a `--seconds` shorter than they take gives every run the same
/// work.
pub fn run(
    args: &Args,
    setups_s: Vec<f64>,
    mut pipeline: impl Pipeline,
    owners: usize,
    warmup: usize,
    min_ticks: usize,
) -> Result<Report, String> {
    let mut reads = pipeline.read_path();
    let mut readers = Readers::new(owners);
    let check = |t: &Tick| {
        if t.verified != t.issued || t.issued + t.failed != owners {
            return Err(format!(
                "tick {}: issued {} + failed {} of {owners} owners, verified {}",
                t.tick, t.issued, t.failed, t.verified
            ));
        }
        Ok(())
    };
    for _ in 0..warmup {
        check(&pipeline.advance()?)?;
        pipeline.read_new(&mut readers, &mut reads)?;
    }
    reads.latency = Samples::default();

    let mut e2e = EndToEnd {
        setups_s,
        digest: FNV_OFFSET,
        ..Default::default()
    };
    let mut repro = (0, 0, FNV_OFFSET);
    let phase = Instant::now();
    loop {
        let t0 = Instant::now();
        let t = pipeline.advance()?;
        e2e.ticks.push(t0.elapsed().as_secs_f64() * 1e3);
        check(&t)?;
        let fresh = pipeline.read_new(&mut readers, &mut reads)?;
        e2e.op_rates
            .push(t.issued as f64 / t0.elapsed().as_secs_f64());
        if fresh != t.issued {
            return Err(format!(
                "tick {}: {fresh} new receipts on the services, {} issued",
                t.tick, t.issued
            ));
        }
        e2e.owner_requests += owners as u64;
        e2e.issued += t.issued as u64;
        e2e.refused += t.failed as u64;
        e2e.deanon_requests += t.verified as u64;
        e2e.digest = fnv_fold(e2e.digest, &t.digest.to_le_bytes());
        if e2e.ticks.len() <= min_ticks {
            repro = (
                repro.0 + t.issued,
                repro.1 + t.failed,
                fnv_fold(repro.2, &t.digest.to_le_bytes()),
            );
        }
        if e2e.ticks.len() >= min_ticks && phase.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    e2e.phase_s = phase.elapsed().as_secs_f64();
    e2e.deanon_requests += reads.latency.len() as u64;
    e2e.reads = reads.latency;
    e2e.repro = format!(
        "first {min_ticks} ticks after {warmup} warm-up: issued {} refused {} digest {:016x}",
        repro.0, repro.1, repro.2
    );
    e2e.report()
}
