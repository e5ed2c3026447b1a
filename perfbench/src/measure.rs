//! Timed simulator runs, memory high-water marks, outcome fingerprints,
//! conservation checks and order statistics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use argus_core::{RunConfig, RunOutcome, SpanKind, SystemSimulation};

/// One simulator run with its wall timings.
pub struct Timed {
    /// Wall time of `SystemSimulation::new`, seconds.
    pub setup_s: f64,
    /// Wall time of `SystemSimulation::run`, seconds.
    pub run_s: f64,
    /// Resident-memory high-water mark over set-up and run, MiB (`None`
    /// where `/proc` is unavailable).
    pub rss_mib: Option<f64>,
    /// What the run computed.
    pub out: RunOutcome,
}

/// Builds and runs `cfg`, timing both phases. A panic inside the
/// simulator is returned as an error so the caller can count the run as
/// failed instead of aborting the whole benchmark.
pub fn timed_run(cfg: RunConfig) -> Result<Timed, String> {
    reset_peak_rss();
    catch_unwind(AssertUnwindSafe(move || {
        let start = Instant::now();
        let sim = SystemSimulation::new(cfg);
        let setup_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let out = std::hint::black_box(sim.run());
        let run_s = start.elapsed().as_secs_f64();
        Timed {
            setup_s,
            run_s,
            rss_mib: peak_rss_mib(),
            out,
        }
    }))
    .map_err(panic_message)
}

/// Times `SystemSimulation::new` alone; the simulation is dropped unrun,
/// which stops and joins its stage threads.
pub fn timed_setup(cfg: RunConfig) -> Result<f64, String> {
    catch_unwind(AssertUnwindSafe(move || {
        let start = Instant::now();
        let sim = std::hint::black_box(SystemSimulation::new(cfg));
        let setup_s = start.elapsed().as_secs_f64();
        drop(sim);
        setup_s
    }))
    .map_err(panic_message)
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    let msg = e
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string());
    format!("simulator panicked: {msg}")
}

/// Resets the kernel's resident-set high-water mark for this process
/// (`/proc/self/clear_refs`, value 5), so the next reading covers only
/// what follows. Best effort: without it the mark covers the process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Everything a run computed that must repeat exactly for the same
/// `(config, seed)`: totals, minute records, level completions,
/// retrieval, fleet, cost and cascade accounting. Telemetry fields are
/// excluded, so a traced run's fingerprint must equal an untraced one's.
/// `Debug` prints every float in its shortest round-trip form, so equal
/// strings mean bit-equal values.
pub fn fingerprint(out: &RunOutcome) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}",
        out.totals,
        out.minutes,
        out.level_completions,
        out.retrieval,
        out.fleet,
        out.cost,
        out.cascade,
        out.switches,
        out.retrain_minutes,
        out.pools,
        out.saturated_minutes,
        out.demand_resplits,
    )
}

/// Per-job simulated latencies of a fully traced run, with the count of
/// jobs that ended `Lost`.
pub struct JobLatencies {
    /// Seconds from `Arrive` to the job's final `Complete`, `Violation`
    /// or `Lost` span, one per job.
    pub secs: Vec<f64>,
    /// Jobs whose final span is `Lost`.
    pub lost: u64,
    /// Jobs whose final span is `Violation`.
    pub late: u64,
}

/// Reads per-job latencies out of a full-telemetry run. Errors if the
/// span log is missing, sampled, truncated, or if some job lacks its
/// arrival or its terminal span.
pub fn job_latencies(out: &RunOutcome) -> Result<JobLatencies, String> {
    let log = out
        .spans
        .as_ref()
        .ok_or("full-telemetry run has no span log")?;
    if log.sample_every != 1 || log.dropped != 0 {
        return Err(format!(
            "span log is partial: 1 in {} jobs, {} events dropped",
            log.sample_every, log.dropped
        ));
    }
    let jobs = out.totals.offered as usize;
    let mut arrive = vec![u64::MAX; jobs];
    let mut end = vec![(u64::MAX, SpanKind::Lost); jobs];
    for ev in &log.events {
        let j = ev.job as usize;
        if j >= jobs {
            return Err(format!("span for job {j} beyond {jobs} offered jobs"));
        }
        match ev.kind {
            SpanKind::Arrive => arrive[j] = ev.t_us,
            SpanKind::Complete | SpanKind::Violation | SpanKind::Lost => {
                end[j] = (ev.t_us, ev.kind)
            }
            _ => {}
        }
    }
    let mut secs = Vec::with_capacity(jobs);
    let (mut lost, mut late) = (0, 0);
    for (j, (&a, &(e, kind))) in arrive.iter().zip(&end).enumerate() {
        if a == u64::MAX || e == u64::MAX || e < a {
            return Err(format!("job {j} has no arrival or no terminal span"));
        }
        secs.push((e - a) as f64 / 1e6);
        lost += u64::from(kind == SpanKind::Lost);
        late += u64::from(kind == SpanKind::Violation);
    }
    Ok(JobLatencies { secs, lost, late })
}

/// Conservation laws every run must satisfy, each checked against how
/// the event loop and the metrics stage account jobs:
///
/// * offered = completed + lost: every arrival ends in exactly one
///   terminal completion or loss (checked when `lost` is known, i.e. from
///   a traced run's spans);
/// * the per-minute records sum to the totals (`MetricsCollector` adds
///   every event to both);
/// * cascade first passes ≥ escalations ≥ completed escalations.
pub fn conservation(out: &RunOutcome, lost: Option<u64>) -> Vec<String> {
    let mut errs = Vec::new();
    let t = &out.totals;
    if let Some(lost) = lost.filter(|&l| t.offered != t.completed + l) {
        errs.push(format!(
            "offered {} != completed {} + lost {lost}",
            t.offered, t.completed
        ));
    }
    let sum = |f: fn(&argus_core::MinuteRecord) -> u64| out.minutes.iter().map(f).sum::<u64>();
    for (name, minutes, total) in [
        ("offered", sum(|m| m.offered), t.offered),
        ("completed", sum(|m| m.completed), t.completed),
        ("violations", sum(|m| m.violations), t.violations),
        ("in_slo", sum(|m| m.in_slo), t.in_slo),
        ("model_loads", sum(|m| m.model_loads), t.model_loads),
    ] {
        if minutes != total {
            errs.push(format!(
                "minute records sum {name} to {minutes}, totals say {total}"
            ));
        }
    }
    let rq: f64 = out.minutes.iter().map(|m| m.relative_quality_sum).sum();
    if (rq - t.relative_quality_sum).abs() > 1e-9 * t.relative_quality_sum.abs().max(1.0) {
        errs.push(format!(
            "minute records sum relative quality to {rq}, totals say {}",
            t.relative_quality_sum
        ));
    }
    if let Some(c) = &out.cascade {
        let escalated: u64 = c.escalated.values().sum();
        if c.first_pass_total() < escalated || escalated < c.escalated_completed {
            errs.push(format!(
                "cascade first passes {} < escalated {escalated} or < completed escalations {}",
                c.first_pass_total(),
                c.escalated_completed
            ));
        }
    }
    errs
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default exclusive method): `(q1, median, q3)`. A single
/// value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let m = n as f64 + 1.0;
            let q = |i: f64| {
                let pos = i * m / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let delta = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
            };
            (q(1.0), q(2.0), q(3.0))
        }
    }
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile `p` (0–100) of `values` (0 for none).
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}
