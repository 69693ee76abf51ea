//! `pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints progress on stderr, then two lines on stdout: a detail object
//! (host and build metadata, sample counts, failures, work counters) and,
//! last, the result object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics, or with `--trace 1` the per-layer
//! ones. A traced run also writes its spans to
//! `.bench_out/<workload>-seed<n>-spans.json`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use pipebench::host::{self, HostMeta};
use pipebench::metrics::{self, END_TO_END, PER_LAYER};
use pipebench::pass::{drift, Pass};
use pipebench::report::{self, array, number, object, string};
use pipebench::trace::{self, Tracer};
use pipebench::Workload;

/// Failures listed in the detail line.
const SHOWN_FAILURES: usize = 20;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: pipebench --workload <verify_grid60|wan500_sharded|serve_grid60|watch_grid30> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Untraced passes until the budget would be overrun by one more.
fn measure(args: &Args) -> Vec<Pass> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(args.workload.pass(args.seed, &Tracer::new(false)));
        let elapsed = start.elapsed();
        let mean = elapsed / passes.len() as u32;
        eprintln!(
            "pipebench: pass {} done at {:.1}s",
            passes.len(),
            elapsed.as_secs_f64()
        );
        if passes.len() >= args.workload.min_passes() && elapsed + mean > budget {
            return passes;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pipebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let meta = HostMeta::probe();
    let name = args.workload.name();
    eprintln!(
        "pipebench: {name} seed {} for {}s, trace {}, {} CPUs",
        args.seed, args.seconds, args.trace as u8, meta.nproc
    );

    let started = Instant::now();
    let passes = if args.trace {
        let untraced = args.workload.pass(args.seed, &Tracer::new(false));
        let traced = args.workload.pass(args.seed, &Tracer::new(true));
        vec![untraced, traced]
    } else {
        measure(&args)
    };
    let elapsed = started.elapsed().as_secs_f64();

    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    failures.extend(drift(&passes));
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum::<u64>().max(1);
    let failed = failures.len() as u64;
    let peak_rss = host::peak_rss_mb().unwrap_or(0.0);
    let e2e = metrics::end_to_end(&passes, peak_rss);

    let mut spans_file = None;
    let (defs, values) = match passes.as_slice() {
        [untraced, traced] if args.trace => {
            let path = format!(".bench_out/{name}-seed{}-spans.json", args.seed);
            let written = std::fs::create_dir_all(".bench_out")
                .and_then(|_| std::fs::write(&path, trace::to_json(&traced.spans)));
            match written {
                Ok(()) => spans_file = Some(path),
                Err(e) => eprintln!("pipebench: could not write {path}: {e}"),
            }
            (PER_LAYER, metrics::per_layer(traced, untraced))
        }
        _ => (END_TO_END, e2e.values),
    };

    let host = object([
        ("nproc", meta.nproc.to_string()),
        ("cpu_model", string(&meta.cpu_model)),
        ("rustc", string(&meta.rustc)),
        ("git_rev", string(&meta.git_rev)),
        ("profile", string(meta.profile)),
    ]);
    let counters = passes.first().map_or_else(
        || "{}".to_string(),
        |p| object(p.counters.iter().map(|(k, v)| (*k, v.to_string()))),
    );
    let detail = object([
        ("workload", string(name)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("passes", passes.len().to_string()),
        ("elapsed_s", number(elapsed)),
        ("op_samples", e2e.tail.samples.to_string()),
        ("op_tail_pct", number(e2e.tail.pct)),
        (
            "pass_busy_s",
            array(passes.iter().map(|p| number(p.busy_s))),
        ),
        ("host", host),
        ("counters", counters),
        (
            "failures",
            array(failures.iter().take(SHOWN_FAILURES).map(|f| string(f))),
        ),
        (
            "spans_file",
            spans_file.as_deref().map_or("null".into(), string),
        ),
    ]);
    println!("{}", object([("detail", detail)]));
    println!(
        "{}",
        report::result_line(failures.is_empty(), attempted, failed, defs, &values)
    );
    ExitCode::SUCCESS
}
