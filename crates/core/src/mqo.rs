//! Multi-query optimization (§V: "Lusail also supports multi-query
//! optimization", detailed in the paper's extended version).
//!
//! A batch of queries often shares subqueries after decomposition — in
//! the paper's motivating scenario many users ask overlapping analytical
//! queries over the same decentralized graphs. [`Lusail::execute_batch`]
//! runs every item exactly as [`Lusail::execute_with`] runs a solo query —
//! the one planner (`plan_conjunctive`) and the one conjunctive executor
//! ([`evaluate_subqueries`]), so a solo query is a batch of one — and
//! hands the executor a [`BatchMemo`] that lives as long as the batch.
//! The memo holds two kinds of entry:
//!
//! * **unbound relations**, keyed by [`subquery_signature`]: a non-delayed
//!   subquery (or a delayed one with no usable bindings) that another item
//!   already evaluated is served from the memo instead of the wire;
//! * **bound `VALUES` rounds**, keyed by the exact signature, binding
//!   variable, and distinct bound values: each item still runs SAPE's
//!   phase 2 against its own non-delayed results, and a round whose
//!   bindings equal one already shipped is served from the memo.
//!
//! Items finish serially, so a later identical item hits the memo for
//! every round. Nested OPTIONAL / UNION / NOT EXISTS groups share their
//! top-level subqueries the same way and then run unshared.
//!
//! [`Lusail::execute_batch_with`] is the options-aware form the query
//! server's cross-tenant batching scheduler drives: every item carries its
//! own [`ExecOptions`] (trace sink, thread budget, deadline, health hook),
//! deadlines are charged from the *batch* start so one tenant's work never
//! extends another tenant's budget, and a shared relation that lost data
//! degrades every dependent item with the producing evaluation's failure
//! attribution merged into its report.

use crate::cost::SubqueryCosts;
use crate::engine::{Lusail, QueryResult};
use crate::exec::{evaluate_subqueries, ExecConfig, Net, Spent};
use crate::join::Relation;
use crate::metrics::QueryMetrics;
use crate::subquery::Subquery;
use lusail_endpoint::{
    EndpointFailure, EndpointId, ExecOptions, Federation, FederationError, TraceEvent,
};
use lusail_rdf::TermId;
use lusail_sparql::ast::Query;
use lusail_sparql::SolutionSet;
use std::collections::HashMap;

/// A normalized signature for subquery sharing: the triple patterns (in a
/// canonical order), sources, pushed filters, and projection. Variable
/// names are part of the signature — a memoized relation's columns carry
/// the producer's names — so two subqueries with equal signatures evaluate
/// to multiset-equal relations over the same columns (pinned by the
/// signature-soundness property test), which is what makes reusing a
/// memoized relation across queries safe.
pub fn subquery_signature(sq: &Subquery) -> String {
    let mut triples: Vec<String> = sq.triples.iter().map(|tp| format!("{tp:?}")).collect();
    triples.sort();
    let mut projection = sq.projection.clone();
    projection.sort();
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        triples, sq.sources, sq.filters, projection
    )
}

/// Statistics from a batch execution.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Subqueries across all queries, after decomposition.
    pub total_subqueries: usize,
    /// Distinct evaluations actually run: unbound relations plus bound
    /// `VALUES` rounds.
    pub distinct_subqueries: usize,
    /// Subquery evaluations answered from the batch memo instead of the
    /// wire.
    pub shared_hits: u64,
    /// Wire requests avoided by memo hits: each reuse credits the request
    /// count the producing evaluation spent.
    pub wire_requests_saved: u64,
}

/// One query in an options-aware batch ([`Lusail::execute_batch_with`]).
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The query to execute.
    pub query: Query,
    /// Per-item options: trace sink, thread budget, deadline, health hook.
    pub opts: ExecOptions,
}

/// Per-item outcome of [`Lusail::execute_batch_with`]. The batch itself is
/// infallible — one item's failure never poisons its neighbours.
#[derive(Debug, Clone)]
pub enum BatchOutcome {
    /// The query ran (possibly degraded; see `QueryResult::complete`).
    Finished(Box<QueryResult>),
    /// The item's deadline had fully elapsed — burned by earlier items in
    /// the batch — before its turn; nothing was executed for it.
    DeadlineExpired,
    /// Federation-level misuse, reported per item.
    Error(FederationError),
}

/// What a memo entry is keyed by. Keys compare in full — a bound round
/// matches only when its value list is *equal* to the memoized one, never
/// on a hash alone.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum MemoKey {
    /// A subquery evaluated unbound, by [`subquery_signature`].
    Unbound(String),
    /// A delayed subquery bound by `VALUES` over one variable's distinct
    /// values, in shipping order.
    Bound {
        signature: String,
        var: String,
        values: Vec<TermId>,
    },
}

impl MemoKey {
    pub(crate) fn unbound(sq: &Subquery) -> MemoKey {
        MemoKey::Unbound(subquery_signature(sq))
    }

    pub(crate) fn bound(sq: &Subquery, var: &str, values: &[TermId]) -> MemoKey {
        MemoKey::Bound {
            signature: subquery_signature(sq),
            var: var.to_string(),
            values: values.to_vec(),
        }
    }
}

/// A memoized relation plus everything a *dependent* query must inherit
/// to stay honest: whether the producing evaluation lost data, which
/// endpoints misbehaved while producing it, and what it cost on the wire
/// (the savings each reuse records).
struct SharedEntry {
    relation: Relation,
    spent: Spent,
    failures: Vec<EndpointFailure>,
}

/// The batch memo [`evaluate_subqueries`] reads and extends: unbound
/// relations and bound `VALUES` rounds already evaluated by an earlier
/// item of the same batch (see the module docs).
#[derive(Default)]
pub struct BatchMemo {
    entries: HashMap<MemoKey, SharedEntry>,
    pub(crate) report: BatchReport,
}

impl BatchMemo {
    /// The memoized relation for `key`, if an earlier item evaluated it.
    /// A hit is counted and traced as a [`TraceEvent::SubqueryShared`] for
    /// subquery `index`. The dependent query inherits the producer's
    /// damage along with the rows, exactly as if it had evaluated the
    /// subquery itself: a relation with a hole makes it incomplete, and
    /// the producer's failures (circuit state included) fold into its own
    /// client.
    pub(crate) fn lookup(&mut self, key: &MemoKey, net: &Net, index: usize) -> Option<Relation> {
        let entry = self.entries.get(key)?;
        self.report.shared_hits += 1;
        self.report.wire_requests_saved += entry.spent.attempts;
        net.trace.emit(|| TraceEvent::SubqueryShared {
            index,
            saved_requests: entry.spent.attempts,
        });
        if entry.spent.lost {
            net.degradation.record_data_loss();
        }
        net.client.inherit(&entry.failures);
        Some(entry.relation.clone())
    }

    /// Memoizes a relation this item evaluated.
    pub(crate) fn store(
        &mut self,
        key: MemoKey,
        relation: &Relation,
        spent: Spent,
        failures: Vec<EndpointFailure>,
    ) {
        self.entries.insert(
            key,
            SharedEntry {
                relation: relation.clone(),
                spent,
                failures,
            },
        );
    }
}

/// The failure attribution a memo entry carries, from one client's report
/// before and after the evaluation, restricted to the endpoints it could
/// touch (`sources` and their replica groups): the failure counters that
/// grew while it ran and the circuits it opened. A lossy evaluation also
/// carries a circuit that was already open, since an open circuit fails
/// requests without counting them anew.
pub(crate) fn attribute_failures(
    fed: &Federation,
    sources: &[EndpointId],
    lost: bool,
    before: &[EndpointFailure],
    after: &[EndpointFailure],
) -> Vec<EndpointFailure> {
    let touched = |ep: EndpointId| sources.iter().any(|&s| fed.replica_group(s).contains(&ep));
    after
        .iter()
        .filter(|f| touched(f.endpoint))
        .filter_map(|f| {
            let mut f = f.clone();
            if let Some(b) = before.iter().find(|b| b.endpoint == f.endpoint) {
                f.failed_requests -= b.failed_requests;
                f.retries -= b.retries;
                f.dead &= lost || !b.dead;
            }
            (f.failed_requests > 0 || f.retries > 0 || f.dead).then_some(f)
        })
        .collect()
}

impl Lusail {
    /// Executes a batch of queries, sharing identical subquery results.
    ///
    /// Returns one [`QueryResult`] per query (same order) plus a
    /// [`BatchReport`] describing how much work was shared.
    pub fn execute_batch(
        &self,
        fed: &Federation,
        queries: &[Query],
    ) -> Result<(Vec<QueryResult>, BatchReport), FederationError> {
        let items: Vec<BatchItem> = queries
            .iter()
            .map(|q| BatchItem {
                query: q.clone(),
                opts: ExecOptions::default(),
            })
            .collect();
        let (outcomes, report) = self.execute_batch_with(fed, &items);
        let mut results = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            match outcome {
                BatchOutcome::Finished(result) => results.push(*result),
                BatchOutcome::Error(e) => return Err(e),
                BatchOutcome::DeadlineExpired => {
                    unreachable!("default options carry no deadline")
                }
            }
        }
        Ok((results, report))
    }

    /// Options-aware batch execution: one [`BatchOutcome`] per item (same
    /// order), each item executed exactly as solo execution would, except
    /// that unbound relations and bound `VALUES` rounds are shared across
    /// items through one [`BatchMemo`]. The contracts the server's batching
    /// scheduler relies on:
    ///
    /// * **Deadlines are absolute.** An item's `opts.deadline` is measured
    ///   from the *batch* start on the engine clock, so time burned by
    ///   earlier items counts against it — sharing can only shorten a
    ///   query, never extend it past what it asked for. An item whose
    ///   deadline elapsed before its turn yields
    ///   [`BatchOutcome::DeadlineExpired`] without touching the wire.
    /// * **Failure attribution is inherited.** A shared relation that lost
    ///   data degrades every dependent item exactly as if the item had
    ///   evaluated the subquery itself: `complete` goes false and the
    ///   producing evaluation's per-endpoint failures merge into the
    ///   item's report.
    /// * **Traces and metrics stay per-item.** Each enabled sink sees its
    ///   own planning events, a [`TraceEvent::SubqueryShared`] for every
    ///   memo hit, and the terminal [`TraceEvent::QueryFinished`]; each
    ///   result carries the item's own [`QueryMetrics`].
    pub fn execute_batch_with(
        &self,
        fed: &Federation,
        items: &[BatchItem],
    ) -> (Vec<BatchOutcome>, BatchReport) {
        let clock = self.timing_clock();
        let start = clock.now();
        let mut memo = BatchMemo::default();
        let mut outcomes = Vec::with_capacity(items.len());
        for item in items {
            if fed.is_empty() {
                outcomes.push(BatchOutcome::Error(FederationError::EmptyFederation));
                continue;
            }
            let elapsed = clock.now().saturating_sub(start);
            let opts = match item.opts.deadline {
                Some(d) if elapsed >= d => {
                    outcomes.push(BatchOutcome::DeadlineExpired);
                    continue;
                }
                Some(d) => item.opts.clone().with_deadline(d - elapsed),
                None => item.opts.clone(),
            };
            let result = self.execute_item(fed, &item.query, &opts, Some(&mut memo));
            outcomes.push(BatchOutcome::Finished(Box::new(result)));
        }
        let mut report = memo.report;
        report.distinct_subqueries = memo.entries.len();
        (outcomes, report)
    }

    /// Plans `query` and returns its decomposed top-level subqueries — the
    /// units [`subquery_signature`] keys the batch memo by. `None` when the
    /// query takes the disjoint fast path or has no relevant sources.
    pub fn plan_subqueries(&self, fed: &Federation, query: &Query) -> Option<Vec<Subquery>> {
        if fed.is_empty() {
            return None;
        }
        let net = self.fresh_net();
        match self.plan_conjunctive(fed, query, &net, &mut QueryMetrics::default()) {
            crate::engine::ConjunctivePlan::Planned { subqueries, .. } => Some(subqueries),
            _ => None,
        }
    }

    /// Evaluates one subquery standalone (no bindings from neighbours) and
    /// returns its relation — the unit the batch memo shares. Exposed so
    /// the signature-soundness property test can compare relations of
    /// signature-equal subqueries directly.
    pub fn evaluate_subquery(&self, fed: &Federation, sq: &Subquery) -> SolutionSet {
        let net = self.fresh_net();
        let (relation, _) = evaluate_subqueries(
            fed,
            &net,
            std::slice::from_ref(sq),
            &SubqueryCosts {
                cardinality: vec![1],
                delayed: vec![false],
            },
            &ExecConfig::for_engine(self.config(), net.threads),
            None,
        );
        relation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lusail_endpoint::{
        FaultProfile, FlakyEndpoint, LocalEndpoint, ManualClock, RequestPolicy, TraceSink,
    };
    use lusail_rdf::{Dictionary, Term};
    use lusail_sparql::parse_query;
    use lusail_store::TripleStore;
    use std::sync::Arc;
    use std::time::Duration;

    fn fed() -> (Federation, TripleStore) {
        let dict = Dictionary::shared();
        let mut oracle = TripleStore::new(Arc::clone(&dict));
        let mut a = TripleStore::new(Arc::clone(&dict));
        let mut b = TripleStore::new(Arc::clone(&dict));
        for i in 0..30 {
            let s = Term::iri(format!("http://a/s{i}"));
            let v = Term::iri(format!("http://shared/v{}", i % 10));
            let o = Term::iri(format!("http://b/o{i}"));
            a.insert_terms(&s, &Term::iri("http://x/p"), &v);
            oracle.insert_terms(&s, &Term::iri("http://x/p"), &v);
            b.insert_terms(&v, &Term::iri("http://x/q"), &o);
            oracle.insert_terms(&v, &Term::iri("http://x/q"), &o);
            b.insert_terms(&v, &Term::iri("http://x/r"), &Term::int(i));
            oracle.insert_terms(&v, &Term::iri("http://x/r"), &Term::int(i));
        }
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(LocalEndpoint::new("B", b)));
        (fed, oracle)
    }

    #[test]
    fn batch_shares_common_subqueries() {
        let (fed, oracle) = fed();
        let q1 = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let q2 = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/r> ?n }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let (results, report) = engine
            .execute_batch(&fed, &[q1.clone(), q2.clone()])
            .unwrap();
        // Both queries decompose into 2 subqueries; the (?s p ?v) subquery
        // is shared.
        assert_eq!(report.total_subqueries, 4);
        assert!(report.distinct_subqueries < 4, "{report:?}");
        // Results still match the oracle.
        for (r, q) in results.iter().zip([&q1, &q2]) {
            let expected = lusail_store::eval::evaluate(&oracle, q).canonicalize();
            assert_eq!(r.solutions.canonicalize(), expected);
        }
    }

    #[test]
    fn batch_reduces_requests_vs_sequential() {
        let (fed, _) = fed();
        let q1 = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let q2 = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/r> ?n }",
            fed.dict(),
        )
        .unwrap();

        // Sequential: two separate engines (cold probe caches each).
        let before = fed.stats_snapshot();
        let e1 = Lusail::default();
        let _ = e1.execute(&fed, &q1);
        let _ = e1.execute(&fed, &q2);
        let sequential = fed.stats_snapshot().since(&before).select_requests;

        let before = fed.stats_snapshot();
        let e2 = Lusail::default();
        let _ = e2.execute_batch(&fed, &[q1, q2]).unwrap();
        let batched = fed.stats_snapshot().since(&before).select_requests;
        assert!(
            batched < sequential,
            "batched {batched} !< sequential {sequential}"
        );
    }

    #[test]
    fn repeating_a_query_shares_all_its_subqueries() {
        let (fed, oracle) = fed();
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let (results, report) = engine
            .execute_batch(&fed, &[q.clone(), q.clone(), q.clone()])
            .unwrap();
        // Three copies of a 2-subquery query: only the distinct pair is
        // evaluated (delayed subqueries are per-query and not memoized, so
        // the distinct count stays at most the per-query subquery count).
        assert_eq!(report.total_subqueries, 6);
        assert!(report.distinct_subqueries <= 2, "{report:?}");
        // Repeats hit the memo, and every hit credits the wire requests
        // the first evaluation spent.
        assert!(report.shared_hits >= 1, "{report:?}");
        assert!(report.wire_requests_saved >= 1, "{report:?}");
        let expected = lusail_store::eval::evaluate(&oracle, &q).canonicalize();
        for r in &results {
            assert_eq!(r.solutions.canonicalize(), expected);
        }
    }

    #[test]
    fn batch_results_match_single_query_execution() {
        // Sharing must be invisible in the answers: every query in an
        // overlapping batch returns exactly what a standalone `execute`
        // returns (which the differential suite pins to the oracle).
        let (fed, _) = fed();
        let texts = [
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/r> ?n }",
            "SELECT ?v WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
        ];
        let queries: Vec<Query> = texts
            .iter()
            .map(|t| parse_query(t, fed.dict()).unwrap())
            .collect();
        let batch_engine = Lusail::default();
        let (results, _) = batch_engine.execute_batch(&fed, &queries).unwrap();
        for (r, q) in results.iter().zip(&queries) {
            let solo = Lusail::default().execute(&fed, q).unwrap();
            assert_eq!(
                r.solutions.canonicalize(),
                solo.solutions.canonicalize(),
                "batched answers diverged from standalone execution"
            );
        }
    }

    #[test]
    fn filtered_variant_is_not_served_from_unfiltered_relation() {
        // Two queries over the same patterns where one pushes a FILTER
        // into its subquery: the signatures differ, so the filtered query
        // must not inherit the unfiltered relation (or vice versa).
        let (fed, oracle) = fed();
        let q_all = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/r> ?n }",
            fed.dict(),
        )
        .unwrap();
        let q_filtered = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/r> ?n . FILTER (?n > 24) }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let (results, _) = engine
            .execute_batch(&fed, &[q_all.clone(), q_filtered.clone()])
            .unwrap();
        let expect_all = lusail_store::eval::evaluate(&oracle, &q_all).canonicalize();
        let expect_filtered = lusail_store::eval::evaluate(&oracle, &q_filtered).canonicalize();
        assert_eq!(results[0].solutions.canonicalize(), expect_all);
        assert_eq!(results[1].solutions.canonicalize(), expect_filtered);
        assert!(results[1].solutions.len() < results[0].solutions.len());
    }

    #[test]
    fn nested_queries_share_their_top_level_subqueries() {
        let (fed, oracle) = fed();
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o . \
             OPTIONAL { ?v <http://x/r> ?n } }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let (results, report) = engine.execute_batch(&fed, &[q.clone(), q.clone()]).unwrap();
        assert!(report.shared_hits >= 1, "{report:?}");
        let expected = lusail_store::eval::evaluate(&oracle, &q).canonicalize();
        for r in &results {
            assert_eq!(r.solutions.canonicalize(), expected);
        }
    }

    #[test]
    fn renamed_variables_are_not_served_from_another_items_relation() {
        // The second query swaps which variable names the q-object and
        // the r-value inside the same two-pattern subquery at B. Same
        // patterns, same projected names, different columns: the
        // relations must not be shared.
        let (fed, oracle) = fed();
        let texts = [
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o . ?v <http://x/r> ?n }",
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?n . ?v <http://x/r> ?o }",
        ];
        let queries: Vec<Query> = texts
            .iter()
            .map(|t| parse_query(t, fed.dict()).unwrap())
            .collect();
        let (results, _) = Lusail::default().execute_batch(&fed, &queries).unwrap();
        for (r, q) in results.iter().zip(&queries) {
            let expected = lusail_store::eval::evaluate(&oracle, q).canonicalize();
            assert_eq!(r.solutions.canonicalize(), expected);
        }
    }

    #[test]
    fn delayed_rounds_are_shared_only_for_equal_bindings() {
        // The q-side subquery is delayed and bound with the p-side's
        // bindings. Items with different p-side subjects bind different
        // value lists, so their rounds are not shared; a repeat of the
        // first item binds an equal list and is served from the memo.
        let (fed, oracle) = fed();
        let text = |s: u32| {
            format!("SELECT * WHERE {{ <http://a/s{s}> <http://x/p> ?v . ?v <http://x/q> ?o }}")
        };
        let queries: Vec<Query> = [1, 2, 1]
            .iter()
            .map(|&s| parse_query(&text(s), fed.dict()).unwrap())
            .collect();
        let items: Vec<BatchItem> = queries
            .iter()
            .map(|q| BatchItem {
                query: q.clone(),
                opts: ExecOptions::default().with_trace(TraceSink::enabled()),
            })
            .collect();
        let engine = Lusail::new(crate::LusailConfig {
            delay_policy: crate::DelayPolicy::Mu,
            ..Default::default()
        });
        let (outcomes, report) = engine.execute_batch_with(&fed, &items);
        let count = |item: &BatchItem, f: fn(&TraceEvent) -> bool| {
            item.opts.trace.events().iter().filter(|e| f(e)).count()
        };
        let bound = |e: &TraceEvent| matches!(e, TraceEvent::ValuesBatch { .. });
        let shared = |e: &TraceEvent| matches!(e, TraceEvent::SubqueryShared { .. });
        assert!(count(&items[0], bound) > 0, "no delayed subquery was bound");
        assert!(
            count(&items[1], bound) > 0,
            "a round with other bindings was shared"
        );
        assert_eq!(count(&items[2], bound), 0, "an equal round was re-shipped");
        assert_eq!(count(&items[2], shared), 2, "{report:?}");
        for (outcome, q) in outcomes.iter().zip(&queries) {
            let BatchOutcome::Finished(r) = outcome else {
                panic!("item did not finish: {outcome:?}");
            };
            let expected = lusail_store::eval::evaluate(&oracle, q).canonicalize();
            assert_eq!(r.solutions.canonicalize(), expected);
            assert_eq!(r.solutions.len(), 3);
        }
    }

    /// A federation whose B endpoint (predicates q/r) is wrapped in a
    /// fault profile; A (predicate p) stays healthy.
    fn fed_with_faulty_b(profile: FaultProfile) -> Federation {
        let dict = Dictionary::shared();
        let mut a = TripleStore::new(Arc::clone(&dict));
        let mut b = TripleStore::new(Arc::clone(&dict));
        for i in 0..30 {
            let s = Term::iri(format!("http://a/s{i}"));
            let v = Term::iri(format!("http://shared/v{}", i % 10));
            let o = Term::iri(format!("http://b/o{i}"));
            a.insert_terms(&s, &Term::iri("http://x/p"), &v);
            b.insert_terms(&v, &Term::iri("http://x/q"), &o);
        }
        let mut fed = Federation::new(dict);
        fed.add(Arc::new(LocalEndpoint::new("A", a)));
        fed.add(Arc::new(FlakyEndpoint::new(
            Arc::new(LocalEndpoint::new("B", b)),
            profile,
        )));
        fed
    }

    #[test]
    fn failed_shared_subquery_degrades_every_dependent_item() {
        // The q-subquery lives at the dead endpoint B: whichever item
        // evaluates (and memoizes) it records the hole, and every item
        // that reuses the relation must inherit both the incompleteness
        // and the failure attribution for B.
        let fed = fed_with_faulty_b(FaultProfile::dead());
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default();
        let items: Vec<BatchItem> = (0..3)
            .map(|_| BatchItem {
                query: q.clone(),
                opts: ExecOptions::default(),
            })
            .collect();
        let (outcomes, report) = engine.execute_batch_with(&fed, &items);
        assert!(report.shared_hits >= 1, "{report:?}");
        let mut first_rows = None;
        for outcome in &outcomes {
            let BatchOutcome::Finished(result) = outcome else {
                panic!("item did not finish: {outcome:?}");
            };
            assert!(!result.complete, "a shared hole must degrade every item");
            assert!(
                result.failures.iter().any(|f| f.name == "B"),
                "dependent item lost B's attribution: {:?}",
                result.failures
            );
            let rows = result.solutions.canonicalize();
            if let Some(first) = &first_rows {
                assert_eq!(&rows, first, "shared reuse changed the answer");
            } else {
                first_rows = Some(rows);
            }
        }
    }

    #[test]
    fn deadline_burned_by_earlier_items_expires_later_items() {
        // Item 0 burns virtual time in retry backoffs against an
        // always-interrupting endpoint; item 1's deadline is charged from
        // the batch start, so it must expire without touching the wire.
        let clock = ManualClock::new();
        let fed = fed_with_faulty_b(FaultProfile::transient(7, 1.0));
        let q = parse_query(
            "SELECT * WHERE { ?s <http://x/p> ?v . ?v <http://x/q> ?o }",
            fed.dict(),
        )
        .unwrap();
        let engine = Lusail::default()
            .with_policy(RequestPolicy {
                max_retries: 2,
                base_backoff: Duration::from_millis(100),
                ..RequestPolicy::default()
            })
            .with_clock(clock.clone());
        let items = vec![
            BatchItem {
                query: q.clone(),
                opts: ExecOptions::default(),
            },
            BatchItem {
                query: q.clone(),
                opts: ExecOptions::default().with_deadline(Duration::from_millis(50)),
            },
        ];
        let (outcomes, _) = engine.execute_batch_with(&fed, &items);
        assert!(
            matches!(outcomes[0], BatchOutcome::Finished(_)),
            "{:?}",
            outcomes[0]
        );
        assert!(
            clock.elapsed() >= Duration::from_millis(100),
            "retry backoffs should have advanced the virtual clock"
        );
        assert!(
            matches!(outcomes[1], BatchOutcome::DeadlineExpired),
            "a deadline burned by a neighbour must expire, got {:?}",
            outcomes[1]
        );
    }
}
