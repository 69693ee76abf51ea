//! The query-serving front end: load a verified snapshot once, precompute
//! the forwarding-equivalence-class index, and answer operator queries
//! over TCP for the life of the snapshot.
//!
//! The one-shot pipeline answers one question per process; an operator
//! debugging an incident asks hundreds ("can r3 reach 10.9.0.1? what
//! about 10.9.0.2? trace it"). Re-running symbolic analysis per question
//! would be O(network) every time, when the expensive part — the per-source
//! partition of the full destination space into packet classes — is a pure
//! function of the snapshot. So:
//!
//! - [`QueryIndex`] wraps a [`mfv_verify::ForwardingAnalysis`] whose
//!   internal memo IS the class index: the first query from a source
//!   computes its full-space partition, every later point query from that
//!   source is a lookup. [`QueryIndex::warm`] precomputes all of them up
//!   front. This is the same shared class-lookup structure the standing
//!   (watch-mode) queries re-evaluate through — one index, two front ends.
//! - [`Server`] shares one `Arc<QueryIndex>` across blocking worker
//!   threads; the index is internally synchronized, so any worker can
//!   serve any query and all workers return byte-identical answers.
//!
//! The wire protocol is a length-prefixed line protocol: requests are
//! single lines (`REACH r1 r4`), responses are `OK <len>\n` or
//! `ERR <len>\n` followed by exactly `<len>` payload bytes. See
//! [`index::Reply`] and [`index::encode`].

pub mod index;
pub mod server;

pub use index::{encode, QueryIndex, Reply};
pub use server::{query_once, Server, ServerConfig, ServerHandle, MAX_REQUEST_LINE};
