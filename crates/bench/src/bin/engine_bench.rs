//! Engine hot-path benchmark: runs the emulation engine scenario suite
//! (message fan-out, a2/e1 convergence, the §5 60-router grid) and emits
//! `BENCH_emulator.json` with median wall times and the engine's own work
//! counters (events processed, messages delivered).
//!
//! When a recorded baseline is supplied (`--baseline scripts/bench_baseline.txt`,
//! captured from the pre-overhaul engine), the report also carries the
//! event-count reduction and wall-time speedup per scenario — the numbers
//! the EXPERIMENTS.md "Engine performance" table tracks.
//!
//! Flags:
//!   --smoke             tiny grid + 1 iteration (CI bit-rot guard)
//!   --iters <n>         iterations per scenario (default 5; median reported)
//!   --out <path>        output JSON path (default BENCH_emulator.json)
//!   --baseline <path>   recorded pre-change numbers (plain `key value` lines)
//!   --watch             also run the continuous-verification window
//!                       (watch60 re-runs dozens of full forwarding
//!                       analyses — minutes of wall time — so it is opt-in)
//!   --obs-json <path>   dump the merged mfv-obs snapshot of the last
//!                       iteration of every scenario
//!   --obs-exclude-wall  omit the wall section from the obs dump, making it
//!                       byte-identical across same-seed runs

use std::collections::BTreeMap;
use std::fs;
use std::process::ExitCode;

use mfv_bench::{
    cluster_scenarios, engine_scenarios, percentile_ms, run_engine_scenario,
    run_engine_scenario_on_cluster, run_watch_scenario, watch_scenario, EngineRunStats,
    WatchRunStats,
};

struct Args {
    smoke: bool,
    iters: usize,
    out: String,
    baseline: Option<String>,
    watch: bool,
    obs_json: Option<String>,
    obs_wall: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        iters: 0,
        out: "BENCH_emulator.json".to_string(),
        baseline: None,
        watch: false,
        obs_json: None,
        obs_wall: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--watch" => args.watch = true,
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                args.iters = v.parse().map_err(|_| format!("bad --iters {v}"))?;
            }
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--baseline" => args.baseline = Some(it.next().ok_or("--baseline needs a value")?),
            "--obs-json" => args.obs_json = Some(it.next().ok_or("--obs-json needs a value")?),
            "--obs-exclude-wall" => args.obs_wall = false,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.iters == 0 {
        args.iters = if args.smoke { 1 } else { 5 };
    }
    Ok(args)
}

/// Baseline file format: `scenario.metric value` per line, `#` comments.
fn load_baseline(path: &str) -> BTreeMap<String, f64> {
    let Ok(text) = fs::read_to_string(path) else {
        eprintln!("engine_bench: no baseline at {path} (reporting absolute numbers only)");
        return BTreeMap::new();
    };
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(key), Some(value)) = (parts.next(), parts.next()) {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(key.to_string(), v);
            }
        }
    }
    out
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("engine_bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = args
        .baseline
        .as_deref()
        .map(load_baseline)
        .unwrap_or_default();

    let suite = engine_scenarios(args.smoke);
    let mut rows: Vec<String> = Vec::new();
    let mut obs = mfv_obs::Obs::new();
    let mut total_events = 0u64;
    let mut total_scheduled = 0u64;
    let mut baseline_total_events = 0.0f64;
    let mut have_full_baseline = !baseline.is_empty();

    for (name, snapshot) in &suite {
        let mut walls: Vec<f64> = Vec::new();
        let mut stats: Option<EngineRunStats> = None;
        for _ in 0..args.iters {
            let s = run_engine_scenario(snapshot, 1);
            walls.push(s.wall.as_secs_f64() * 1_000.0);
            stats = Some(s);
        }
        let stats = stats.expect("at least one iteration");
        obs.merge(stats.obs.clone());
        let wall_ms = median_ms(&mut walls);
        total_events += stats.events_processed;
        total_scheduled += stats.events_scheduled;

        let base_events = baseline.get(&format!("{name}.events")).copied();
        let base_wall = baseline.get(&format!("{name}.wall_ms")).copied();
        match base_events {
            Some(e) => baseline_total_events += e,
            None => have_full_baseline = false,
        }

        let mut row = format!(
            "    \"{name}\": {{\"wall_ms_median\": {}, \"events_processed\": {}, \"events_scheduled\": {}, \"messages_delivered\": {}, \"converged\": {}",
            json_f64(wall_ms),
            stats.events_processed,
            stats.events_scheduled,
            stats.messages_delivered,
            stats.converged,
        );
        // Pre-overhaul baselines predate the scheduled/processed split:
        // every work item went through the heap then, so the recorded
        // `.events` (events processed) equals events scheduled and the
        // reduction ratio compares like with like.
        if let Some(e) = base_events {
            row.push_str(&format!(
                ", \"baseline_events\": {e:.0}, \"event_reduction\": {}",
                json_f64(e / stats.events_scheduled.max(1) as f64)
            ));
        }
        if let Some(w) = base_wall {
            row.push_str(&format!(
                ", \"baseline_wall_ms\": {}, \"wall_speedup\": {}",
                json_f64(w),
                json_f64(w / wall_ms.max(1e-9))
            ));
        }
        row.push('}');
        rows.push(row);
        eprintln!(
            "engine_bench: {name}: {wall_ms:.1} ms median, {} processed / {} scheduled, {} messages, converged={}",
            stats.events_processed, stats.events_scheduled, stats.messages_delivered, stats.converged
        );
        if !stats.converged {
            eprintln!("engine_bench: FAIL — scenario {name} did not converge");
            return ExitCode::FAILURE;
        }
    }

    // Multi-machine scenarios, up to the paper's 1,000 routers: one run
    // each. They stay out of `total_events`: that counter (and the
    // pre-overhaul baseline it is compared against) covers the classic
    // single-machine suite only.
    for (name, snapshot, machines) in &cluster_scenarios(args.smoke) {
        let run = run_engine_scenario_on_cluster(snapshot, 1, *machines);
        let wall_ms = run.stats.wall.as_secs_f64() * 1_000.0;
        let events_per_sec =
            run.stats.events_processed as f64 / run.stats.wall.as_secs_f64().max(1e-9);
        eprintln!(
            "engine_bench: {name}: {wall_ms:.1} ms, {} processed ({events_per_sec:.0} events/s), digest {:016x}, converged={}",
            run.stats.events_processed, run.digest, run.stats.converged
        );
        if !run.stats.converged {
            eprintln!("engine_bench: FAIL — scenario {name} did not converge");
            return ExitCode::FAILURE;
        }
        obs.merge(run.stats.obs.clone());
        rows.push(format!(
            "    \"{name}\": {{\"machines\": {machines}, \"routers\": {}, \"digest\": \"{:016x}\", \"events_processed\": {}, \"events_scheduled\": {}, \"messages_delivered\": {}, \"converged\": {}, \"wall_ms\": {}, \"events_per_sec\": {}}}",
            snapshot.topology.nodes.len(),
            run.digest,
            run.stats.events_processed,
            run.stats.events_scheduled,
            run.stats.messages_delivered,
            run.stats.converged,
            json_f64(wall_ms),
            json_f64(events_per_sec),
        ));
    }

    // Continuous verification under chaos, opt-in (`--watch`): a watch
    // window re-runs dozens of full forwarding analyses (~6 min wall on
    // the full grid), so it would dominate the suite if always on. One
    // iteration only — every reported counter is seed-deterministic
    // anyway (only wall time would vary).
    if args.watch {
        let (name, snapshot) = watch_scenario(args.smoke);
        let stats: WatchRunStats = run_watch_scenario(&snapshot, 1, args.smoke);
        let mut walls = vec![stats.wall.as_secs_f64() * 1_000.0];
        obs.merge(stats.obs.clone());
        let wall_ms = median_ms(&mut walls);
        let p50 = percentile_ms(&stats.latencies_ms, 50.0);
        let p99 = percentile_ms(&stats.latencies_ms, 99.0);
        rows.push(format!(
            "    \"{name}\": {{\"wall_ms_median\": {}, \"verdict_updates\": {}, \"verdict_latency_p50_ms\": {p50}, \"verdict_latency_p99_ms\": {p99}, \"gaps\": {}, \"resyncs\": {}, \"session_losses\": {}, \"recovered\": {}, \"converged\": {}}}",
            json_f64(wall_ms),
            stats.verdict_updates,
            stats.gaps,
            stats.resyncs,
            stats.session_losses,
            stats.recovered,
            stats.converged,
        ));
        eprintln!(
            "engine_bench: {name}: {wall_ms:.1} ms median, {} verdict updates, latency p50/p99 {p50}/{p99} ms, {} gaps, {} resyncs, recovered={}",
            stats.verdict_updates, stats.gaps, stats.resyncs, stats.recovered
        );
        if !stats.converged {
            eprintln!("engine_bench: FAIL — scenario {name} did not converge");
            return ExitCode::FAILURE;
        }
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut doc = String::from("{\n");
    doc.push_str("  \"generated_by\": \"engine_bench\",\n");
    doc.push_str(&format!("  \"smoke\": {},\n", args.smoke));
    doc.push_str(&format!("  \"iterations\": {},\n", args.iters));
    doc.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
    doc.push_str(&format!("  \"watch_enabled\": {},\n", args.watch));
    doc.push_str("  \"scenarios\": {\n");
    doc.push_str(&rows.join(",\n"));
    doc.push_str("\n  },\n");
    doc.push_str(&format!("  \"total_events\": {total_events},\n"));
    doc.push_str(&format!("  \"total_events_scheduled\": {total_scheduled}"));
    if have_full_baseline {
        doc.push_str(&format!(
            ",\n  \"baseline_total_events\": {baseline_total_events:.0},\n  \"total_event_reduction\": {}",
            json_f64(baseline_total_events / total_scheduled.max(1) as f64)
        ));
    }
    doc.push_str("\n}\n");

    if let Err(e) = fs::write(&args.out, &doc) {
        eprintln!("engine_bench: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!("engine_bench: wrote {}", args.out);

    if let Some(path) = &args.obs_json {
        let json = obs.to_json(args.obs_wall);
        if let Err(e) = fs::write(path, &json) {
            eprintln!("engine_bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("engine_bench: wrote obs dump to {path}");
    }
    ExitCode::SUCCESS
}
