//! A benchmark-owned [`SparqlEndpoint`] wrapped around each
//! [`LocalEndpoint`]: it times every request, sorts it into one of five
//! kinds, and records the span tree endpoint → (sparql write, store,
//! network wait) with the store counters that moved during the call.
//!
//! The wrapper forwards every call unchanged, so the engine sees the same
//! answers and the endpoints count the same work; `transparency_check` in
//! `cold.rs` proves that on every `cold-oneshot` query.

use crate::spans::{current_query, thread_tag, Recorder, Span};
use lusail_endpoint::{EndpointError, Federation, LocalEndpoint, SparqlEndpoint, StatsSnapshot};
use lusail_sparql::{write_query, Query, SolutionSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The five request kinds the per-layer metrics split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ask,
    Count,
    /// LADE check query: a `SELECT … FILTER NOT EXISTS { … } LIMIT 1`.
    Check,
    Select,
    /// Bound subquery carrying a `VALUES` block.
    Values,
}

impl Kind {
    fn endpoint_span(self) -> &'static str {
        match self {
            Kind::Ask => "endpoint.ask",
            Kind::Count => "endpoint.count",
            Kind::Check => "endpoint.check",
            Kind::Select => "endpoint.select",
            Kind::Values => "endpoint.values",
        }
    }

    fn store_span(self) -> &'static str {
        match self {
            Kind::Ask => "store.ask",
            Kind::Count => "store.count",
            Kind::Check => "store.check",
            Kind::Select => "store.select",
            Kind::Values => "store.values",
        }
    }

    fn of_select(q: &Query) -> Kind {
        if !q.pattern.not_exists.is_empty() {
            Kind::Check
        } else if q.pattern.values.is_some() {
            Kind::Values
        } else {
            Kind::Select
        }
    }

    pub fn is_probe(self) -> bool {
        matches!(self, Kind::Ask | Kind::Count | Kind::Check)
    }
}

/// What one wrapped request cost, beside its spans.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub kind: Kind,
    pub dur_ns: u64,
    pub store_ns: u64,
    pub net_ns: u64,
    pub write_ns: u64,
    pub rows_scanned: u64,
}

/// Calls recorded by every wrapper of one traced federation.
#[derive(Default)]
pub struct CallLog {
    calls: Mutex<Vec<Call>>,
}

impl CallLog {
    pub fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("call log poisoned"))
    }
}

pub struct TimedEndpoint {
    inner: Arc<LocalEndpoint>,
    rec: Arc<Recorder>,
    log: Arc<CallLog>,
}

impl TimedEndpoint {
    /// The network time `LocalEndpoint::charge` sleeps for a request of
    /// these sizes (zero on an accounting-only profile).
    fn slept(&self, request_bytes: u64, response_bytes: u64) -> Duration {
        let p = self.inner.profile();
        if p.sleep {
            p.latency + p.transfer_time(request_bytes + response_bytes)
        } else {
            Duration::ZERO
        }
    }

    fn timed<T>(
        &self,
        kind: Kind,
        q: &Query,
        call: impl FnOnce() -> Result<T, EndpointError>,
        response: impl FnOnce(&T) -> u64,
    ) -> Result<T, EndpointError> {
        let query = current_query();
        let thread = thread_tag();
        let id = self.rec.next_id();
        let t0 = self.rec.now_ns();
        let request_bytes = write_query(q, self.inner.store().dict()).len() as u64;
        let t1 = self.rec.now_ns();
        let before = self.inner.stats_snapshot();
        let result = call();
        let t2 = self.rec.now_ns();
        let window = self.inner.stats_snapshot().since(&before);
        let t3 = self.rec.now_ns();
        let response_bytes = result.as_ref().map_or(0, response);
        let net_ns = (self.slept(request_bytes, response_bytes).as_nanos() as u64).min(t2 - t1);
        let child = |name, start_ns, end_ns| Span {
            id: self.rec.next_id(),
            parent: id,
            query,
            thread,
            name,
            start_ns,
            end_ns,
        };
        self.rec.push(Span {
            id,
            parent: query,
            query,
            thread,
            name: kind.endpoint_span(),
            start_ns: t0,
            end_ns: t3,
        });
        self.rec.push(child("sparql.write", t0, t1));
        self.rec.push(child(kind.store_span(), t1, t2 - net_ns));
        self.rec.push(child("net.wait", t2 - net_ns, t2));
        self.log
            .calls
            .lock()
            .expect("call log poisoned")
            .push(Call {
                kind,
                dur_ns: t3 - t0,
                store_ns: t2 - t1 - net_ns,
                net_ns,
                write_ns: t1 - t0,
                rows_scanned: window.rows_scanned,
            });
        result
    }
}

impl SparqlEndpoint for TimedEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ask(&self, q: &Query) -> Result<bool, EndpointError> {
        // The serialized answer is `true` or `false`.
        self.timed(
            Kind::Ask,
            q,
            || self.inner.ask(q),
            |&b| if b { 4 } else { 5 },
        )
    }

    fn select(&self, q: &Query) -> Result<SolutionSet, EndpointError> {
        self.timed(
            Kind::of_select(q),
            q,
            || self.inner.select(q),
            |s| s.wire_bytes(),
        )
    }

    fn count(&self, q: &Query) -> Result<u64, EndpointError> {
        self.timed(
            Kind::Count,
            q,
            || self.inner.count(q),
            |n| n.to_string().len() as u64,
        )
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    fn triple_count(&self) -> usize {
        self.inner.triple_count()
    }

    fn resident_bytes(&self) -> Option<u64> {
        self.inner.resident_bytes()
    }
}

/// A federation over the same endpoints, each behind a [`TimedEndpoint`],
/// with the same ids and the same offline statistics attached.
pub fn wrap(
    plain: &Federation,
    endpoints: &[Arc<LocalEndpoint>],
    rec: &Arc<Recorder>,
    log: &Arc<CallLog>,
) -> Federation {
    let mut builder = Federation::builder(Arc::clone(plain.dict()));
    for ep in endpoints {
        builder = builder.custom(Arc::new(TimedEndpoint {
            inner: Arc::clone(ep),
            rec: Arc::clone(rec),
            log: Arc::clone(log),
        }));
    }
    let wrapped = builder.build();
    for id in plain.all_ids() {
        if let Some(stats) = plain.stats_for(id) {
            wrapped.attach_stats(id, stats);
        }
    }
    wrapped
}
