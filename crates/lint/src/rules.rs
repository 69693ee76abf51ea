//! The project-invariant rules `mfv-lint` enforces, and their matchers.
//!
//! Each rule is a named, suppressible check over sanitized source lines
//! (see [`crate::scan`]). Rules are scoped to the crates where the
//! invariant matters; a violation elsewhere is by definition not a
//! violation. Suppression is per-line (`// mfv-lint: allow(D1, reason)` on
//! the offending line or the line above) or per-file
//! (`// mfv-lint: allow-file(P1, reason)` anywhere in the file); a reason
//! is mandatory — a bare allow is itself rejected.

use crate::scan::{is_ident_char, word_bounded, Line};

/// Rule identifiers, stable across output formats and suppressions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum RuleId {
    /// No `HashMap`/`HashSet` in order-sensitive crates.
    D1,
    /// No wall clock / unseeded randomness outside `bench`.
    D2,
    /// No panicking constructs on extraction/verification paths.
    P1,
    /// Wire decoders reject input via the typed decode-error path only.
    W1,
    /// No relaxed atomics or unsorted channel drains in order-sensitive
    /// crates.
    D3,
}

impl RuleId {
    pub fn as_str(&self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::P1 => "P1",
            RuleId::W1 => "W1",
            RuleId::D3 => "D3",
        }
    }

    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "P1" => Some(RuleId::P1),
            "W1" => Some(RuleId::W1),
            "D3" => Some(RuleId::D3),
            _ => None,
        }
    }

    pub const ALL: [RuleId; 5] = [RuleId::D1, RuleId::D2, RuleId::P1, RuleId::W1, RuleId::D3];

    /// Does this rule apply to source in `crate_name`?
    pub fn applies_to(&self, crate_name: &str) -> bool {
        match self {
            // Crates where map iteration order can leak into event
            // schedules or verification verdicts — including obs, whose
            // dump paths must iterate in stable (BTreeMap) order for the
            // byte-identical-metrics contract, and mgmt, whose watcher
            // tick/status order feeds the byte-identical verdict journal.
            // serve is included: its query answers must be byte-identical
            // across worker threads, so map iteration order in any reply
            // path is behaviour, not implementation detail.
            RuleId::D1 => matches!(
                crate_name,
                "emulator"
                    | "routing"
                    | "vrouter"
                    | "verify"
                    | "obs"
                    | "mgmt"
                    | "conflint"
                    | "serve"
            ),
            // The emulator is discrete-event: wall clock and ambient
            // entropy break seeded replay everywhere except the bench
            // harness, which measures real time on purpose. In `obs` only
            // the explicitly-marked wall-time section (src/wall.rs, via a
            // reasoned allow-file) may read the clock.
            RuleId::D2 => crate_name != "bench",
            // Extraction and verification paths must degrade via Result,
            // not abort a sweep; obs is flushed from those same paths, so
            // a panicking dump would take the sweep down with it.
            // conflint is a gate: an analyzer that panics on a weird config
            // is worse than one that reports nothing.
            // serve is long-running: a panicking worker thread silently
            // shrinks the accept pool, so malformed requests must degrade
            // via ERR replies, never aborts.
            RuleId::P1 => matches!(
                crate_name,
                "mgmt" | "verify" | "core" | "obs" | "conflint" | "serve"
            ),
            // Wire decoders must reject malformed input through
            // `DecodeError`, never a panic.
            RuleId::W1 => crate_name == "wire",
            // Same scope as D1: in these crates a relaxed atomic can
            // reorder cross-thread observations, and draining a channel
            // with `try_iter` yields arrival order — both let thread
            // scheduling leak into event schedules or verdicts. The
            // emulator's multi-seed pool is Relaxed-free by design: work is
            // handed out by a mutex-guarded cursor and each result lands in
            // its own index slot.
            RuleId::D3 => matches!(
                crate_name,
                "emulator" | "routing" | "vrouter" | "verify" | "obs" | "mgmt" | "conflint"
            ),
        }
    }

    /// Diagnostic headline for a match of `pattern`.
    pub fn message(&self, pattern: &str) -> String {
        match self {
            RuleId::D1 => format!(
                "`{pattern}` iteration order is unspecified and can leak into \
                 event schedules or verdicts in this crate"
            ),
            RuleId::D2 => format!(
                "`{pattern}` breaks seeded replay: the emulator runs on \
                 virtual time and seeded randomness only"
            ),
            RuleId::P1 => format!(
                "`{pattern}` can panic mid-sweep; extraction/verification \
                 paths must return `Result` and degrade coverage instead"
            ),
            RuleId::W1 => format!(
                "`{pattern}` can panic on malformed input; wire decoders must \
                 reject bytes through the typed `DecodeError` path"
            ),
            RuleId::D3 => format!(
                "`{pattern}` lets thread scheduling order leak into results \
                 in this crate; replayed runs must not depend on it"
            ),
        }
    }

    pub fn help(&self) -> &'static str {
        match self {
            RuleId::D1 => "use BTreeMap/BTreeSet, or annotate `// mfv-lint: allow(D1, <reason>)`",
            RuleId::D2 => {
                "use SimTime/SimDuration and a seeded ChaCha8Rng, or annotate \
                 `// mfv-lint: allow(D2, <reason>)`"
            }
            RuleId::P1 => {
                "return a typed error (SweepError/SeedError/ExtractError), or annotate \
                 `// mfv-lint: allow(P1, <reason>)`"
            }
            RuleId::W1 => {
                "return `Err(DecodeError::new(...))`, or annotate \
                 `// mfv-lint: allow(W1, <reason>)`"
            }
            RuleId::D3 => {
                "use SeqCst (or a mutex) and sort drained items by a \
                 content-derived key, or annotate \
                 `// mfv-lint: allow(D3, <reason>)`"
            }
        }
    }
}

/// One rule match within a line: column (0-based byte offset into the
/// sanitized line) plus the pattern that matched.
#[derive(Clone, Debug)]
pub struct Match {
    pub col: usize,
    pub pattern: String,
}

/// Word-bounded needles per rule. Panicking constructs are shared between
/// P1 and W1 (different crates, different message).
const D1_NEEDLES: [&str; 2] = ["HashMap", "HashSet"];
const D2_NEEDLES: [&str; 5] = [
    "Instant::now",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "OsRng",
];
const PANIC_NEEDLES: [&str; 5] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "unimplemented!",
];
const D3_NEEDLES: [&str; 2] = ["Ordering::Relaxed", ".try_iter("];

/// Runs `rule` against one sanitized line, returning every match.
pub fn check_line(rule: RuleId, line: &Line) -> Vec<Match> {
    let code = line.code.as_str();
    let mut out = Vec::new();
    let needles: &[&str] = match rule {
        RuleId::D1 => &D1_NEEDLES,
        RuleId::D2 => &D2_NEEDLES,
        RuleId::P1 | RuleId::W1 => &PANIC_NEEDLES,
        RuleId::D3 => &D3_NEEDLES,
    };
    for needle in needles {
        for (pos, _) in code.match_indices(needle) {
            // `.unwrap()` / `.expect(` start with '.', which is never an
            // identifier char, so word_bounded handles all needles alike.
            if word_bounded(code, pos, needle) {
                out.push(Match {
                    col: pos,
                    pattern: (*needle).to_string(),
                });
            }
        }
    }
    if matches!(rule, RuleId::P1 | RuleId::W1) {
        out.extend(index_matches(code));
    }
    out.sort_by_key(|m| m.col);
    out
}

/// Heuristic for slice/array/map indexing expressions `expr[...]`, which
/// panic out of bounds (or on a missing map key). An opening bracket counts
/// when it directly follows an identifier, `)`, or `]` — which excludes
/// attributes (`#[...]`), array types/literals (`[u8; 4]`), and macro
/// brackets (`vec![...]`). Pure full-range slices (`x[..]`) cannot panic
/// and are skipped.
fn index_matches(code: &str) -> Vec<Match> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (pos, b) in bytes.iter().enumerate() {
        if *b != b'[' {
            continue;
        }
        let Some(prev) = bytes[..pos].iter().rev().find(|c| !c.is_ascii_whitespace()) else {
            continue;
        };
        let prev = *prev as char;
        if !(is_ident_char(prev) || prev == ')' || prev == ']') {
            continue;
        }
        // `for x in [...]`, `return [...]` etc. are array literals, not
        // indexing: skip when the preceding token is a keyword.
        if is_ident_char(prev) && preceded_by_keyword(code, pos) {
            continue;
        }
        // Find the matching close bracket on this line (expressions
        // spanning lines are rare enough to ignore — the lexer works per
        // line).
        let mut depth = 0usize;
        let mut close = None;
        for (j, c) in bytes.iter().enumerate().skip(pos) {
            match c {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
        }
        let inner = match close {
            Some(j) => code[pos + 1..j].trim(),
            None => code[pos + 1..].trim(),
        };
        if inner.is_empty() || inner == ".." {
            continue;
        }
        out.push(Match {
            col: pos,
            pattern: format!("indexing `[{inner}]`"),
        });
    }
    out
}

/// Is the identifier token ending just before byte `pos` a Rust keyword
/// that can legally precede an array literal or array pattern
/// (`let [a, b] = ...` is destructuring, not indexing)?
fn preceded_by_keyword(code: &str, pos: usize) -> bool {
    const KEYWORDS: [&str; 10] = [
        "in", "return", "if", "else", "match", "break", "mut", "ref", "pub", "let",
    ];
    let before = code[..pos].trim_end();
    let token_start = before
        .char_indices()
        .rev()
        .find(|(_, c)| !is_ident_char(*c))
        .map(|(i, c)| i + c.len_utf8())
        .unwrap_or(0);
    KEYWORDS.contains(&&before[token_start..])
}

/// Parses `mfv-lint: allow(RULE, reason)` / `allow-file(RULE, reason)`
/// markers out of a raw source line. Returns `(rule, file_wide, reason)`.
pub fn parse_allows(raw: &str) -> Vec<(RuleId, bool, String)> {
    let mut out = Vec::new();
    let mut rest = raw;
    while let Some(at) = rest.find("mfv-lint:") {
        rest = &rest[at + "mfv-lint:".len()..];
        let trimmed = rest.trim_start();
        let file_wide = trimmed.starts_with("allow-file(");
        let keyword = if file_wide { "allow-file(" } else { "allow(" };
        let Some(body) = trimmed.strip_prefix(keyword) else {
            continue;
        };
        let Some(end) = body.find(')') else { continue };
        let args = &body[..end];
        let (rule_str, reason) = match args.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (args.trim(), ""),
        };
        if let Some(rule) = RuleId::parse(rule_str) {
            out.push((rule, file_wide, reason.to_string()));
        }
        rest = &body[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn matches(rule: RuleId, src: &str) -> Vec<String> {
        let f = scan(src);
        f.lines
            .iter()
            .flat_map(|l| check_line(rule, l))
            .map(|m| m.pattern)
            .collect()
    }

    #[test]
    fn d1_matches_hash_collections_word_bounded() {
        assert_eq!(
            matches(RuleId::D1, "use std::collections::HashMap;").len(),
            1
        );
        assert_eq!(matches(RuleId::D1, "let x: FxHashMap<u32, u32>;").len(), 0);
        assert_eq!(matches(RuleId::D1, "let s = \"HashMap\";").len(), 0);
    }

    #[test]
    fn d2_matches_clock_and_entropy() {
        assert_eq!(matches(RuleId::D2, "let t = Instant::now();").len(), 1);
        assert_eq!(matches(RuleId::D2, "let r = rand::thread_rng();").len(), 1);
        assert_eq!(matches(RuleId::D2, "let t = SimTime::ZERO;").len(), 0);
    }

    #[test]
    fn p1_matches_panicking_constructs() {
        assert_eq!(matches(RuleId::P1, "x.unwrap();").len(), 1);
        assert_eq!(matches(RuleId::P1, "x.unwrap_or_default();").len(), 0);
        assert_eq!(matches(RuleId::P1, "x.expect(\"boom\");").len(), 1);
        assert_eq!(matches(RuleId::P1, "x.expect_err(\"boom\");").len(), 0);
        assert_eq!(matches(RuleId::P1, "panic!(\"boom\");").len(), 1);
        assert_eq!(matches(RuleId::P1, "fn panic_message() {}").len(), 0);
    }

    #[test]
    fn indexing_heuristic() {
        assert_eq!(matches(RuleId::P1, "let y = xs[0];").len(), 1);
        assert_eq!(matches(RuleId::P1, "let y = &xs[..n];").len(), 1);
        assert_eq!(matches(RuleId::P1, "let y = map[&key];").len(), 1);
        // Non-panicking bracket uses.
        assert_eq!(matches(RuleId::P1, "#[derive(Debug)]").len(), 0);
        assert_eq!(matches(RuleId::P1, "let b: [u8; 4] = [0u8; 4];").len(), 0);
        assert_eq!(matches(RuleId::P1, "let v = vec![1, 2];").len(), 0);
        assert_eq!(matches(RuleId::P1, "let all = &xs[..];").len(), 0);
    }

    #[test]
    fn d3_matches_relaxed_atomics_and_channel_drains() {
        assert_eq!(
            matches(RuleId::D3, "counter.fetch_add(1, Ordering::Relaxed);").len(),
            1
        );
        assert_eq!(
            matches(RuleId::D3, "for msg in rx.try_iter() { out.push(msg); }").len(),
            1
        );
        // The sanctioned idioms stay quiet.
        assert_eq!(
            matches(RuleId::D3, "counter.fetch_add(1, Ordering::SeqCst);").len(),
            0
        );
        assert_eq!(
            matches(RuleId::D3, "let s = \"Ordering::Relaxed\";").len(),
            0
        );
        assert_eq!(
            matches(RuleId::D3, "outbox.sort_by_key(|m| m.key);").len(),
            0
        );
        // `try_iter` only as a method call, not as an identifier.
        assert_eq!(matches(RuleId::D3, "fn try_iteration() {}").len(), 0);
    }

    #[test]
    fn allow_parsing() {
        let allows = parse_allows("x // mfv-lint: allow(D1, keyed lookup only)");
        assert_eq!(allows.len(), 1);
        assert_eq!(allows[0].0, RuleId::D1);
        assert!(!allows[0].1);
        assert_eq!(allows[0].2, "keyed lookup only");

        let allows = parse_allows("// mfv-lint: allow-file(P1, literal scenario constants)");
        assert!(allows[0].1);

        assert!(parse_allows("// mfv-lint: allow(ZZ, nope)").is_empty());
        // Missing reason still parses; the analyzer reports it as an error.
        let allows = parse_allows("// mfv-lint: allow(P1)");
        assert_eq!(allows[0].2, "");
    }
}
