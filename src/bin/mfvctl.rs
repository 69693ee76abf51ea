//! `mfvctl` — command-line front end for the model-free verification
//! pipeline, operating on topology files (the same JSON documents the
//! emulator uses).
//!
//! ```text
//! mfvctl example six-node > topo.json         write a scenario topology file
//! mfvctl run topo.json [--seed N] [--machines N]
//! mfvctl diff before.json after.json [--scope CIDR]
//! mfvctl trace topo.json <src-node> <dst-ip>
//! mfvctl show topo.json <node> <show command...>
//! mfvctl model topo.json                       model-based baseline + coverage
//! mfvctl serve topo.json [--port N] [--workers N] [--baseline model]
//! mfvctl query addr:port [REQUEST...]          client for a running server
//! ```

use std::process::ExitCode;

use mfv_core::{
    deliverability_changes, differential_reachability, scenarios, unreachable_pairs, Backend,
    EmulationBackend, ModelBackend, Snapshot,
};
use mfv_emulator::Topology;
use mfv_serve::{query_once, QueryIndex, Server, ServerConfig};
use mfv_types::{IpSet, NodeId};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mfvctl: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let cmd = it.next().map(|s| s.as_str()).unwrap_or("help");
    match cmd {
        "example" => example(it.next().map(|s| s.as_str()).unwrap_or("six-node")),
        "run" => cmd_run(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "show" => cmd_show(&args[1..]),
        "model" => cmd_model(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "query" => cmd_query(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{}", HELP);
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try `mfvctl help`)")),
    }
}

const HELP: &str = "\
mfvctl — model-free network verification

USAGE:
  mfvctl example [NAME]                       print a scenario topology file
                                              (six-node, six-node-broken,
                                               fig3-line, rr-cluster, clos,
                                               interplay, conflint-base)
  mfvctl run TOPOLOGY [--seed N] [--machines N]
                                              emulate, converge, verify
  mfvctl diff BEFORE AFTER [--scope CIDR]     differential reachability
  mfvctl trace TOPOLOGY SRC-NODE DST-IP       single-packet traceroute
  mfvctl show TOPOLOGY NODE COMMAND...        operator CLI on the converged net
  mfvctl model TOPOLOGY                       model-based baseline + coverage
  mfvctl serve TOPOLOGY [--port N] [--workers N] [--baseline model]
                                              converge once, precompute the
                                              class index, answer queries
                                              over TCP (REACH, FATE, TRACE,
                                              DIFF, NODES, STATS, QUIT)
  mfvctl query ADDR:PORT [REQUEST...]         send one request (or stdin
                                              lines) to a running server
";

fn example(name: &str) -> Result<(), String> {
    let snapshot = match name {
        "six-node" => scenarios::six_node(),
        "six-node-broken" => scenarios::six_node_broken(),
        "fig3-line" => scenarios::three_node_line_fig3(),
        "rr-cluster" => scenarios::rr_cluster(4),
        "clos" => scenarios::clos(2, 4),
        "interplay" => scenarios::interplay_chain(),
        "conflint-base" => scenarios::conflint_base(),
        other => return Err(format!("unknown example '{other}'")),
    };
    println!("{}", snapshot.topology.to_json());
    Ok(())
}

fn load(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let topo = Topology::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    topo.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(Snapshot::new(path.to_string(), topo))
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn backend_from(args: &[String]) -> Result<EmulationBackend, String> {
    let mut backend = EmulationBackend::default();
    if let Some(seed) = flag(args, "--seed") {
        backend.seed = seed.parse().map_err(|_| "bad --seed".to_string())?;
    }
    if let Some(m) = flag(args, "--machines") {
        backend.cluster_machines = m.parse().map_err(|_| "bad --machines".to_string())?;
    }
    Ok(backend)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: mfvctl run TOPOLOGY")?;
    let snapshot = load(path)?;
    let backend = backend_from(args)?;
    let result = backend.compute(&snapshot).map_err(|e| e.to_string())?;
    println!("snapshot:    {}", snapshot.name);
    println!("nodes:       {}", result.dataplane.nodes.len());
    println!("converged:   {}", result.meta.converged);
    if let Some(boot) = result.meta.boot_time {
        println!("boot:        {boot}");
    }
    if let Some(conv) = result.meta.convergence_time {
        println!("convergence: {conv} after boot");
    }
    println!("messages:    {}", result.meta.messages);
    println!("crashes:     {}", result.meta.crashes);
    println!("fib entries: {}", result.dataplane.total_entries());

    let broken = unreachable_pairs(&result.dataplane);
    if broken.is_empty() {
        println!("\nreachability: full mesh ✓");
    } else {
        println!("\nreachability: {} broken pairs", broken.len());
        for r in broken.iter().take(10) {
            for (set, disp) in r.failed.iter().take(2) {
                println!("  {} -> {}: {} [{}]", r.src, r.dst_node, set, disp);
            }
        }
    }
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let (a, b) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err("usage: mfvctl diff BEFORE AFTER [--scope CIDR]".into()),
    };
    let scope = match flag(args, "--scope") {
        Some(cidr) => Some(IpSet::from_prefix(
            &cidr.parse().map_err(|_| format!("bad --scope '{cidr}'"))?,
        )),
        None => None,
    };
    let backend = backend_from(args)?;
    let before = backend.compute(&load(a)?).map_err(|e| e.to_string())?;
    let after = backend.compute(&load(b)?).map_err(|e| e.to_string())?;
    let findings = differential_reachability(&before.dataplane, &after.dataplane, scope.as_ref());
    println!("{} fate-changed packet classes", findings.len());
    let lost = deliverability_changes(&findings);
    println!("{} deliverability changes:", lost.len());
    for f in lost {
        println!("  {f}");
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let (path, src, dst) = match (args.first(), args.get(1), args.get(2)) {
        (Some(p), Some(s), Some(d)) => (p, s, d),
        _ => return Err("usage: mfvctl trace TOPOLOGY SRC-NODE DST-IP".into()),
    };
    let dst: std::net::Ipv4Addr = dst
        .parse()
        .map_err(|_| format!("bad destination '{dst}'"))?;
    let backend = backend_from(args)?;
    let result = backend.compute(&load(path)?).map_err(|e| e.to_string())?;
    let trace = mfv_core::traceroute(&result.dataplane, &NodeId::from(src.as_str()), dst);
    for (i, hop) in trace.hops.iter().enumerate() {
        match &hop.egress {
            Some(e) => println!("{:>2}  {} (out {})", i + 1, hop.node, e),
            None => println!("{:>2}  {}", i + 1, hop.node),
        }
    }
    println!("=> {}", trace.disposition);
    Ok(())
}

fn cmd_show(args: &[String]) -> Result<(), String> {
    let (path, node) = match (args.first(), args.get(1)) {
        (Some(p), Some(n)) => (p, n),
        _ => return Err("usage: mfvctl show TOPOLOGY NODE COMMAND...".into()),
    };
    let command = args[2..].join(" ");
    if command.is_empty() {
        return Err("usage: mfvctl show TOPOLOGY NODE COMMAND...".into());
    }
    let backend = EmulationBackend::default();
    let (emu, _) = backend.run(&load(path)?).map_err(|e| e.to_string())?;
    match emu.cli(&NodeId::from(node.as_str()), &command) {
        Some(out) => {
            print!("{out}");
            Ok(())
        }
        None => Err(format!("no such node '{node}'")),
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: mfvctl serve TOPOLOGY")?;
    let snapshot = load(path)?;
    let backend = backend_from(args)?;
    let result = backend.compute(&snapshot).map_err(|e| e.to_string())?;
    if !result.meta.converged {
        return Err("snapshot did not converge; refusing to serve it".into());
    }
    let baseline = match flag(args, "--baseline").as_deref() {
        Some("model") => Some(
            ModelBackend
                .compute(&snapshot)
                .map_err(|e| e.to_string())?
                .dataplane,
        ),
        Some(other) => return Err(format!("unknown --baseline '{other}' (try 'model')")),
        None => None,
    };
    let index = match &baseline {
        Some(base) => QueryIndex::with_baseline(&result.dataplane, base),
        None => QueryIndex::new(&result.dataplane),
    };
    let classes = index.warm();
    let mut cfg = ServerConfig::default();
    if let Some(p) = flag(args, "--port") {
        cfg.port = p.parse().map_err(|_| "bad --port".to_string())?;
    }
    if let Some(w) = flag(args, "--workers") {
        cfg.workers = w.parse().map_err(|_| "bad --workers".to_string())?;
    }
    let handle =
        Server::start(std::sync::Arc::new(index), &cfg).map_err(|e| format!("bind: {e}"))?;
    println!("snapshot:  {}", snapshot.name);
    println!("nodes:     {}", result.dataplane.nodes.len());
    println!("classes:   {classes}");
    println!("workers:   {}", cfg.workers.max(1));
    println!("listening on {}", handle.addr());
    handle.wait();
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    use std::io::{BufRead as _, BufReader, BufWriter};
    let addr = args
        .first()
        .ok_or("usage: mfvctl query ADDR:PORT [REQUEST...]")?;
    let conn = std::net::TcpStream::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    let mut reader = BufReader::new(conn.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(conn);
    let mut send = |req: &str| -> Result<bool, String> {
        let (ok, payload) = query_once(&mut reader, &mut writer, req).map_err(|e| e.to_string())?;
        if ok {
            println!("{payload}");
        } else {
            println!("error: {payload}");
        }
        Ok(ok)
    };
    let rest = args.get(1..).unwrap_or(&[]);
    if rest.is_empty() {
        // Scripted mode: one request per stdin line, all on one connection.
        let mut all_ok = true;
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            all_ok &= send(line)?;
            if line == "QUIT" {
                break;
            }
        }
        if all_ok {
            Ok(())
        } else {
            Err("some requests failed".into())
        }
    } else {
        let req = rest.join(" ");
        if send(&req)? {
            Ok(())
        } else {
            Err("request failed".into())
        }
    }
}

fn cmd_model(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("usage: mfvctl model TOPOLOGY")?;
    let snapshot = load(path)?;
    let result = ModelBackend.compute(&snapshot).map_err(|e| e.to_string())?;
    println!("config      total  recognized  unrecognized");
    for report in &result.meta.coverage {
        println!(
            "{:<10} {:>6}  {:>10}  {:>12}",
            report.hostname,
            report.total_lines,
            report.recognized_lines,
            report.unrecognized_count()
        );
    }
    let broken = unreachable_pairs(&result.dataplane);
    if broken.is_empty() {
        println!("\nmodel dataplane: full mesh reachability");
    } else {
        println!("\nmodel dataplane: {} broken pairs", broken.len());
        for r in broken.iter().take(10) {
            println!("  {} -> {}", r.src, r.dst_node);
        }
    }
    Ok(())
}
