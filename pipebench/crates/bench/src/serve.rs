//! The read path: a converged grid60 served over TCP to a closed loop of
//! client connections, each on its own thread and each sending its next
//! request only after the previous reply has been read in full.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use mfv_core::{scenarios, EmulationBackend};
use mfv_dataplane::Dataplane;
use mfv_serve::{encode, QueryIndex, Server, ServerConfig};

use crate::pass::Pass;
use crate::stages;
use crate::stats;
use crate::stream::{self, Request};
use crate::trace::Tracer;

/// Client connections, one thread each.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Longest reply payload the client accepts.
const MAX_REPLY: usize = 1 << 24;

/// One answered request as the client saw it.
struct Answer {
    id: u64,
    latency_ms: f64,
    reply: Vec<u8>,
}

/// A warmed index over a freshly converged and extracted grid60.
struct Served {
    index: Arc<QueryIndex>,
    dataplane: Dataplane,
    nodes: Vec<String>,
    addresses: Vec<Ipv4Addr>,
}

fn set_up(seed: u64, tr: &Tracer, p: &mut Pass) -> Result<Served, String> {
    let t = Instant::now();
    let snapshot = tr.time("core.scenario", || scenarios::isis_grid(10, 6));
    let backend = EmulationBackend::with_seed(seed);
    let emu = stages::converge(&snapshot.topology, &backend, tr, p)?;
    let ex = stages::extract(&emu, &backend, tr, p);
    drop(emu);
    let index = Arc::new(tr.time("serve.index", || QueryIndex::new(&ex.dataplane)));
    let classes = tr.time("serve.warm", || index.warm());
    p.setup_s.push(t.elapsed().as_secs_f64());

    stages::check_extraction(&ex, tr, p);
    p.count("serve.classes", classes as u64);
    let addresses = ex
        .dataplane
        .nodes
        .values()
        .flat_map(|n| n.addresses.iter().copied())
        .collect();
    let nodes = index.node_names().iter().map(|n| n.to_string()).collect();
    Ok(Served {
        index,
        dataplane: ex.dataplane,
        nodes,
        addresses,
    })
}

/// One pass: set-up (converge, extract, index, warm), then the request
/// stream (every node pair once, see [`stream::requests`]) through the
/// server, then the byte-for-byte reply gate. Every pass replays the same
/// stream against a freshly warmed index, so each sees the same misses.
///
/// A traced pass first replays the stream in-process through
/// `QueryIndex::handle` on a second index, built and warmed the same way
/// (timing each call and keeping its bytes as the expected replies), so
/// the served index still meets every request as cold as in an untraced
/// pass.
pub fn pass(seed: u64, tr: &Tracer) -> Pass {
    let mut p = Pass::default();
    let _root = tr.enter("bench.pass");
    if let Err(e) = run(seed, tr, &mut p) {
        p.attempted += 1;
        p.failures.push(e);
    }
    p
}

fn run(seed: u64, tr: &Tracer, p: &mut Pass) -> Result<(), String> {
    let served = set_up(seed, tr, p)?;
    let reqs = stream::requests(&served.nodes, &served.addresses, CLIENTS, seed);
    let in_process = tr.is_on().then(|| {
        let oracle = QueryIndex::new(&served.dataplane);
        oracle.warm();
        handle_in_process(&oracle, &reqs, tr, p)
    });

    let (hits0, misses0) = served.index.memo_stats();
    let t = Instant::now();
    let answers = stream_requests(&served.index, &reqs, tr)?;
    p.busy_s = t.elapsed().as_secs_f64();
    let (hits1, misses1) = served.index.memo_stats();
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    p.count("serve.memo_misses", misses as u64);
    if hits + misses > 0 {
        p.layer.insert(
            "serve.memo_miss_ratio",
            misses as f64 / (hits + misses) as f64,
        );
    }

    p.attempted += reqs.len() as u64;
    p.ops_ms = answers.iter().map(|a| a.latency_ms).collect();
    let _g = tr.enter("bench.check");
    let (expected, handle_ms) = in_process.unwrap_or_else(|| {
        let replies = reqs.iter().map(|r| encode(&served.index.handle(&r.line)));
        (replies.collect(), Vec::new())
    });
    p.gate(answers.len() == reqs.len(), || {
        format!("{} of {} requests answered", answers.len(), reqs.len())
    });
    for a in &answers {
        if expected.get(a.id as usize) != Some(&a.reply) {
            p.failures.push(format!(
                "reply to request {} ({}) differs from QueryIndex::handle",
                a.id,
                reqs.get(a.id as usize).map_or("?", |r| r.line.as_str())
            ));
        }
    }
    if !handle_ms.is_empty() {
        let wire: Vec<f64> = answers
            .iter()
            .filter_map(|a| {
                handle_ms
                    .get(a.id as usize)
                    .map(|h| (a.latency_ms - h) * 1e3)
            })
            .collect();
        p.layer.insert("serve.wire_us", stats::median(&wire));
    }
    Ok(())
}

/// Encoded replies and handling times (ms), both indexed by request id.
type InProcess = (Vec<Vec<u8>>, Vec<f64>);

/// Replays the stream through `QueryIndex::handle` on this thread, one
/// span per request, recording per-verb handling percentiles into `p`.
fn handle_in_process(index: &QueryIndex, reqs: &[Request], tr: &Tracer, p: &mut Pass) -> InProcess {
    let mut by_verb: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut handle_ms = Vec::with_capacity(reqs.len());
    let mut replies = Vec::with_capacity(reqs.len());
    for r in reqs {
        let t = Instant::now();
        let reply = {
            let _g = tr.enter_req("serve.handle", r.id, None);
            index.handle(&r.line)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        by_verb.entry(r.verb()).or_default().push(ms * 1e3);
        handle_ms.push(ms);
        replies.push(encode(&reply));
    }
    for (verb, us) in by_verb {
        let (p50, p99) = match verb {
            "REACH" => ("serve.handle_us.REACH.p50", "serve.handle_us.REACH.p99"),
            "FATE" => ("serve.handle_us.FATE.p50", "serve.handle_us.FATE.p99"),
            _ => ("serve.handle_us.TRACE.p50", "serve.handle_us.TRACE.p99"),
        };
        p.layer.insert(p50, stats::percentile(&us, 50.0));
        p.layer.insert(p99, stats::percentile(&us, 99.0));
    }
    (replies, handle_ms)
}

/// Starts the server on `index`, runs the closed loop, shuts the server
/// down, and returns every answer in request-id order.
fn stream_requests(
    index: &Arc<QueryIndex>,
    reqs: &[Request],
    tr: &Tracer,
) -> Result<Vec<Answer>, String> {
    let cfg = ServerConfig {
        port: 0,
        workers: WORKERS,
    };
    let server = Server::start(Arc::clone(index), &cfg).map_err(|e| format!("serve: bind: {e}"))?;
    let addr = server.addr();
    let stream_span = tr.enter("serve.stream");
    let parent = tr.current();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mine: Vec<&Request> = reqs.iter().filter(|r| r.client == c).collect();
                let ctr = tr.for_thread();
                s.spawn(move || {
                    let res = client(addr, &mine, &ctr, parent);
                    (res, ctr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "serve: client thread panicked".to_string())
            })
            .collect::<Vec<_>>()
    });
    drop(stream_span);
    server.shutdown();

    let mut answers = Vec::with_capacity(reqs.len());
    for r in results {
        let (res, ctr) = r?;
        tr.absorb(ctr);
        answers.extend(res.map_err(|e| format!("serve: client: {e}"))?);
    }
    answers.sort_by_key(|a| a.id);
    Ok(answers)
}

/// One connection's closed loop: write a request, read its whole reply,
/// repeat. Latency runs from the write to the last payload byte.
fn client(
    addr: SocketAddr,
    reqs: &[&Request],
    tr: &Tracer,
    parent: Option<usize>,
) -> io::Result<Vec<Answer>> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = conn;
    let mut out = Vec::with_capacity(reqs.len());
    let mut line = String::new();
    for r in reqs {
        line.clear();
        line.push_str(&r.line);
        line.push('\n');
        let t = Instant::now();
        let reply = {
            let _g = tr.enter_req("serve.request", r.id, parent);
            writer.write_all(line.as_bytes())?;
            read_reply(&mut reader)?
        };
        out.push(Answer {
            id: r.id,
            latency_ms: t.elapsed().as_secs_f64() * 1e3,
            reply,
        });
    }
    writer.write_all(b"QUIT\n")?;
    let _ = read_reply(&mut reader)?;
    Ok(out)
}

/// Reads one `OK|ERR <len>\n<payload>` reply and returns its raw bytes.
fn read_reply(reader: &mut impl BufRead) -> io::Result<Vec<u8>> {
    let mut header = Vec::new();
    if reader.read_until(b'\n', &mut header)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed",
        ));
    }
    let len = std::str::from_utf8(&header)
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|l| l.parse::<usize>().ok())
        .filter(|&l| l <= MAX_REPLY)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad reply header"))?;
    let mut reply = header;
    let start = reply.len();
    reply.resize(start + len, 0);
    reader.read_exact(&mut reply[start..])?;
    Ok(reply)
}
