//! Integration tests for the extension features: ORDER BY across engines,
//! EXPLAIN plans, and multi-query optimization.

use lusail_baselines::{FedX, HiBisCus, HibiscusIndex, Splendid, VoidIndex};
use lusail_benchdata::{lubm, qfed};
use lusail_core::Lusail;
use lusail_endpoint::ExecOptions;
use lusail_endpoint::FederatedEngine;
use std::sync::Arc;

#[test]
fn order_by_is_respected_by_every_engine() {
    let w = lubm::generate(&lubm::LubmConfig::new(2));
    let q = lusail_sparql::parse_query(
        &format!(
            "PREFIX ub: <{}> SELECT ?n WHERE {{ ?u a ub:University . ?u ub:name ?n }} ORDER BY DESC(?n)",
            lubm::UB
        ),
        w.federation.dict(),
    )
    .unwrap();
    let engines: Vec<Arc<dyn FederatedEngine>> = vec![
        Arc::new(Lusail::default()),
        Arc::new(FedX::default()),
        Arc::new(HiBisCus::new(HibiscusIndex::build(&w.endpoint_refs()))),
        Arc::new(Splendid::new(VoidIndex::build(&w.endpoint_refs()))),
    ];
    for engine in engines {
        let sols = engine
            .run_with(&w.federation, &q, &ExecOptions::default())
            .unwrap()
            .solutions;
        let names: Vec<String> = (0..sols.len())
            .map(|i| {
                w.dict
                    .decode(sols.get(i, "n").unwrap())
                    .lexical()
                    .to_string()
            })
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.reverse();
        assert_eq!(names, sorted, "{} violates ORDER BY", engine.engine_name());
        assert_eq!(names, ["University 1", "University 0"]);
    }
}

#[test]
fn order_by_with_limit_returns_global_top_k() {
    // The disjoint fast path pushes ORDER BY + LIMIT to the endpoints and
    // re-sorts globally; the result must be the *global* top-k, not some
    // endpoint's.
    let w = lubm::generate(&lubm::LubmConfig::new(3));
    let q = lusail_sparql::parse_query(
        &format!(
            "PREFIX ub: <{}> SELECT ?n WHERE {{ ?u a ub:University . ?u ub:name ?n }} ORDER BY ?n LIMIT 2",
            lubm::UB
        ),
        w.federation.dict(),
    )
    .unwrap();
    let engine = Lusail::default();
    let sols = engine
        .run_with(&w.federation, &q, &ExecOptions::default())
        .unwrap()
        .solutions;
    let names: Vec<String> = (0..sols.len())
        .map(|i| {
            w.dict
                .decode(sols.get(i, "n").unwrap())
                .lexical()
                .to_string()
        })
        .collect();
    assert_eq!(names, ["University 0", "University 1"]);
}

#[test]
fn explain_matches_execution_decisions() {
    let w = lubm::generate(&lubm::LubmConfig::new(4));
    let engine = Lusail::default();
    for name in ["Q1", "Q2", "Q3", "Q4"] {
        let q = &w.query(name).query;
        let plan = engine.explain(&w.federation, q);
        let result = engine.execute(&w.federation, q).unwrap();
        assert_eq!(
            plan.gjvs, result.metrics.gjvs,
            "{name}: explain and execute disagree on GJVs"
        );
        if plan.disjoint {
            assert_eq!(result.metrics.subqueries, 1, "{name}");
        } else {
            assert_eq!(
                plan.subqueries.len(),
                result.metrics.subqueries,
                "{name}: explain and execute disagree on subquery count"
            );
            let planned_delayed = plan.subqueries.iter().filter(|s| s.delayed).count();
            assert_eq!(
                planned_delayed, result.metrics.delayed_subqueries,
                "{name}: explain and execute disagree on delays"
            );
        }
    }
}

#[test]
fn explain_render_mentions_every_endpoint_and_pattern() {
    let w = qfed::generate(&qfed::QfedConfig::default());
    let engine = Lusail::default();
    let text = engine
        .explain(&w.federation, &w.query("C2P2").query)
        .render();
    assert!(text.contains("DrugBank"));
    assert!(text.contains("Sider"));
    assert!(text.contains("sameAs"));
    assert!(text.contains("subquery 1"));
}

#[test]
fn mqo_batch_matches_individual_execution_on_benchmarks() {
    let w = qfed::generate(&qfed::QfedConfig {
        drugs: 100,
        diseases: 30,
        ..Default::default()
    });
    let queries: Vec<lusail_sparql::Query> = w.queries.iter().map(|nq| nq.query.clone()).collect();
    let batch_engine = Lusail::default();
    let (batch_results, report) = batch_engine.execute_batch(&w.federation, &queries).unwrap();
    assert!(report.total_subqueries >= report.distinct_subqueries);
    let single_engine = Lusail::default();
    for (nq, br) in w.queries.iter().zip(&batch_results) {
        let single = single_engine.execute(&w.federation, &nq.query).unwrap();
        assert_eq!(
            br.solutions.canonicalize(),
            single.solutions.canonicalize(),
            "batch and single disagree on {}",
            nq.name
        );
    }
}

#[test]
fn mqo_shares_across_the_c2p2_family() {
    // The C2P2 variants all share the drug/sameAs/sideEffect core:
    // batching them should evaluate far fewer distinct subqueries than the
    // total.
    let w = qfed::generate(&qfed::QfedConfig::default());
    let family: Vec<lusail_sparql::Query> = w
        .queries
        .iter()
        .filter(|nq| nq.name.starts_with("C2P2"))
        .map(|nq| nq.query.clone())
        .collect();
    assert!(family.len() >= 6);
    let engine = Lusail::default();
    let (_, report) = engine.execute_batch(&w.federation, &family).unwrap();
    assert!(
        report.distinct_subqueries < report.total_subqueries,
        "no sharing happened: {report:?}"
    );
}

/// Runs `queries` solo, one after another on one engine (probe caches
/// shared, as a server with batching off would), then as one batch on a
/// fresh engine. Returns the batched results, the solo results, and the
/// wire windows of the batch and of the whole solo sequence.
fn solo_then_batched(
    fed: &lusail_endpoint::Federation,
    queries: &[lusail_sparql::Query],
) -> (
    Vec<lusail_core::QueryResult>,
    Vec<lusail_core::QueryResult>,
    lusail_endpoint::StatsSnapshot,
    lusail_endpoint::StatsSnapshot,
) {
    let solo_engine = Lusail::default();
    let before = fed.stats_snapshot();
    let solo: Vec<_> = queries
        .iter()
        .map(|q| solo_engine.execute(fed, q).unwrap())
        .collect();
    let solo_wire = fed.stats_snapshot().since(&before);
    let before = fed.stats_snapshot();
    let (batched, _) = Lusail::default().execute_batch(fed, queries).unwrap();
    let batched_wire = fed.stats_snapshot().since(&before);
    (batched, solo, batched_wire, solo_wire)
}

/// Every wire counter of `batched` is at most the same counter of `solo`.
fn assert_wire_within(
    what: &str,
    batched: &lusail_endpoint::StatsSnapshot,
    solo: &lusail_endpoint::StatsSnapshot,
) {
    let counters = [
        ("ASK requests", batched.ask_requests, solo.ask_requests),
        (
            "SELECT requests",
            batched.select_requests,
            solo.select_requests,
        ),
        (
            "COUNT requests",
            batched.count_requests,
            solo.count_requests,
        ),
        ("bytes sent", batched.bytes_sent, solo.bytes_sent),
        (
            "bytes returned",
            batched.bytes_returned,
            solo.bytes_returned,
        ),
        ("rows returned", batched.rows_returned, solo.rows_returned),
    ];
    for (counter, b, s) in counters {
        assert!(b <= s, "{what}: batched {counter} {b} > solo {s}");
    }
}

#[test]
fn heterogeneous_window_matches_solo_and_ships_no_more() {
    // One window holding every LargeRDFBench query (simple, complex and
    // big-data, OPTIONAL and UNION included), then the whole QFed set:
    // every answer equals its solo run and no wire counter exceeds the
    // solo sequence's.
    let lrb = lusail_benchdata::lrb::generate(&lusail_benchdata::lrb::LrbConfig::default());
    let qfed = qfed::generate(&qfed::QfedConfig::default());
    for (name, w) in [("LRB", &lrb), ("QFed", &qfed)] {
        let queries: Vec<lusail_sparql::Query> =
            w.queries.iter().map(|nq| nq.query.clone()).collect();
        let (batched, solo, batched_wire, solo_wire) = solo_then_batched(&w.federation, &queries);
        for ((nq, b), s) in w.queries.iter().zip(&batched).zip(&solo) {
            assert_eq!(
                b.solutions.canonicalize(),
                s.solutions.canonicalize(),
                "{name} {}: batched answer differs from solo",
                nq.name
            );
            assert_eq!(b.complete, s.complete, "{name} {}", nq.name);
        }
        assert_wire_within(name, &batched_wire, &solo_wire);
    }
}

#[test]
fn repeated_big_queries_ship_no_more_rows_than_one_solo_run() {
    // A batch of two identical items runs SAPE once: the second item is
    // served from the batch memo, bound VALUES rounds included, so the
    // batch ships no more rows than a single solo run.
    let w = lusail_benchdata::lrb::generate(&lusail_benchdata::lrb::LrbConfig::default());
    for name in ["B2", "S13"] {
        let q = &w.query(name).query;
        let before = w.federation.stats_snapshot();
        let solo = Lusail::default().execute(&w.federation, q).unwrap();
        let solo_rows = w.federation.stats_snapshot().since(&before).rows_returned;
        let before = w.federation.stats_snapshot();
        let (batched, report) = Lusail::default()
            .execute_batch(&w.federation, &[q.clone(), q.clone()])
            .unwrap();
        let batched_rows = w.federation.stats_snapshot().since(&before).rows_returned;
        assert!(
            batched_rows <= solo_rows,
            "{name}: a batch of two shipped {batched_rows} rows, one solo run {solo_rows}"
        );
        assert!(report.shared_hits > 0, "{name}: {report:?}");
        for r in &batched {
            assert_eq!(r.solutions.canonicalize(), solo.solutions.canonicalize());
        }
    }
}

#[test]
fn batched_delayed_subquery_is_bound_with_values_blocks() {
    // Batching keeps SAPE: an item's delayed subquery is evaluated as a
    // bound subquery over VALUES blocks of its own non-delayed bindings,
    // and a batch of one reports the same counters as solo execution.
    use lusail_endpoint::{TraceEvent, TraceSink};
    let w = lusail_benchdata::lrb::generate(&lusail_benchdata::lrb::LrbConfig::default());
    let q = &w.query("B2").query;
    let solo = Lusail::default().execute(&w.federation, q).unwrap();
    assert!(solo.metrics.delayed_subqueries > 0, "B2 delays no subquery");
    let opts = ExecOptions::default().with_trace(TraceSink::enabled());
    let item = lusail_core::BatchItem {
        query: q.clone(),
        opts: opts.clone(),
    };
    let (outcomes, _) = Lusail::default().execute_batch_with(&w.federation, &[item]);
    let lusail_core::BatchOutcome::Finished(batched) = &outcomes[0] else {
        panic!("batch item did not finish: {:?}", outcomes[0]);
    };
    let events = opts.trace.events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::ValuesBatch { .. })),
        "the batched delayed subquery shipped no VALUES block"
    );
    let (b, s) = (&batched.metrics, &solo.metrics);
    assert_eq!(b.subqueries, s.subqueries);
    assert_eq!(b.delayed_subqueries, s.delayed_subqueries);
    assert_eq!(b.gjvs, s.gjvs);
    assert_eq!(b.check_queries, s.check_queries);
    assert_eq!(b.result_rows, s.result_rows);
    assert_eq!(b.requests_source_selection, s.requests_source_selection);
    assert_eq!(b.requests_analysis, s.requests_analysis);
    assert_eq!(b.requests_execution, s.requests_execution);
    assert!(b.total_requests() > 0);
}

#[test]
fn correlated_optional_filter_sees_outer_bindings() {
    // SPARQL LeftJoin(P1, P2, F): the filter inside OPTIONAL references an
    // outer variable. A per-group evaluation would make the filter error
    // (unbound ?min) and drop every optional match.
    use lusail_endpoint::{Federation, LocalEndpoint};
    use lusail_rdf::{Dictionary, Term};
    use lusail_store::TripleStore;

    let dict = lusail_rdf::Dictionary::shared();
    let mut st = TripleStore::new(Arc::clone(&dict));
    for (person, min, bid) in [("p1", 10, 15), ("p2", 20, 15), ("p3", 10, 5)] {
        let s = Term::iri(format!("http://x/{person}"));
        st.insert_terms(&s, &Term::iri("http://x/minimum"), &Term::int(min));
        st.insert_terms(&s, &Term::iri("http://x/bid"), &Term::int(bid));
    }
    let q = lusail_sparql::parse_query(
        "SELECT ?p ?b WHERE { ?p <http://x/minimum> ?min . \
         OPTIONAL { ?p <http://x/bid> ?b . FILTER (?b > ?min) } } ORDER BY ?p",
        &dict,
    )
    .unwrap();
    // Local evaluation.
    let sols = lusail_store::eval::evaluate(&st, &q);
    let bound: Vec<bool> = (0..sols.len())
        .map(|i| sols.get(i, "b").is_some())
        .collect();
    // p1: 15 > 10 → bound; p2: 15 > 20 fails → unbound; p3: 5 > 10 fails.
    assert_eq!(bound, [true, false, false]);

    // Federated evaluation agrees.
    let mut st2 = TripleStore::new(Arc::clone(&dict));
    st.scan(None, None, None, |t| {
        st2.insert(t);
        true
    });
    let mut fed = Federation::new(Arc::clone(&dict));
    fed.add(Arc::new(LocalEndpoint::new("A", st2)));
    let got = Lusail::default()
        .run_with(&fed, &q, &ExecOptions::default())
        .unwrap()
        .solutions;
    assert_eq!(got.canonicalize(), sols.canonicalize());
    let _ = Dictionary::new();
}

#[test]
fn correlated_not_exists_filter_sees_outer_bindings() {
    use lusail_rdf::Term;
    use lusail_store::TripleStore;

    let dict = lusail_rdf::Dictionary::shared();
    let mut st = TripleStore::new(Arc::clone(&dict));
    // People with ages; exclude anyone who has a friend *older than
    // themselves* (correlated comparison).
    for (person, age) in [("a", 30), ("b", 40), ("c", 50)] {
        st.insert_terms(
            &Term::iri(format!("http://x/{person}")),
            &Term::iri("http://x/age"),
            &Term::int(age),
        );
    }
    st.insert_terms(
        &Term::iri("http://x/a"),
        &Term::iri("http://x/friend"),
        &Term::iri("http://x/b"),
    );
    st.insert_terms(
        &Term::iri("http://x/b"),
        &Term::iri("http://x/friend"),
        &Term::iri("http://x/a"),
    );
    let q = lusail_sparql::parse_query(
        "SELECT ?p WHERE { ?p <http://x/age> ?age . \
         FILTER NOT EXISTS { ?p <http://x/friend> ?f . ?f <http://x/age> ?fa . \
         FILTER (?fa > ?age) } } ORDER BY ?p",
        &dict,
    )
    .unwrap();
    let sols = lusail_store::eval::evaluate(&st, &q);
    let names: Vec<String> = (0..sols.len())
        .map(|i| dict.decode(sols.get(i, "p").unwrap()).lexical().to_string())
        .collect();
    // a has friend b (40 > 30) → excluded; b's friend a is younger → kept;
    // c has no friends → kept.
    assert_eq!(names, ["http://x/b", "http://x/c"]);
}

#[test]
fn order_by_non_projected_variable_sorts() {
    use lusail_rdf::Term;
    use lusail_store::TripleStore;
    let dict = lusail_rdf::Dictionary::shared();
    let mut st = TripleStore::new(Arc::clone(&dict));
    for (name, rank) in [("carol", 2), ("alice", 3), ("bob", 1)] {
        let s = Term::iri(format!("http://x/{name}"));
        st.insert_terms(&s, &Term::iri("http://x/name"), &Term::lit(name));
        st.insert_terms(&s, &Term::iri("http://x/rank"), &Term::int(rank));
    }
    // ?r is a sort key but NOT projected.
    let q = lusail_sparql::parse_query(
        "SELECT ?n WHERE { ?s <http://x/name> ?n . ?s <http://x/rank> ?r } ORDER BY ?r",
        &dict,
    )
    .unwrap();
    let sols = lusail_store::eval::evaluate(&st, &q);
    let names: Vec<String> = (0..sols.len())
        .map(|i| dict.decode(sols.get(i, "n").unwrap()).lexical().to_string())
        .collect();
    assert_eq!(names, ["bob", "carol", "alice"]);
    assert_eq!(sols.vars, ["n"]); // sort key not leaked into the schema
}

#[test]
fn federated_order_by_non_projected_variable() {
    // The sort key ?r lives in a different subquery column that is not
    // projected by the query; the engine must still ship and sort by it.
    use lusail_endpoint::{Federation, LocalEndpoint};
    use lusail_rdf::Term;
    use lusail_store::TripleStore;
    let dict = lusail_rdf::Dictionary::shared();
    let mut a = TripleStore::new(Arc::clone(&dict));
    let mut b = TripleStore::new(Arc::clone(&dict));
    for (name, rank) in [("carol", 2), ("alice", 3), ("bob", 1)] {
        let s = Term::iri(format!("http://people/{name}"));
        a.insert_terms(&s, &Term::iri("http://x/name"), &Term::lit(name));
        b.insert_terms(&s, &Term::iri("http://x/rank"), &Term::int(rank));
    }
    let mut fed = Federation::new(Arc::clone(&dict));
    fed.add(Arc::new(LocalEndpoint::new("A", a)));
    fed.add(Arc::new(LocalEndpoint::new("B", b)));
    let q = lusail_sparql::parse_query(
        "SELECT ?n WHERE { ?s <http://x/name> ?n . ?s <http://x/rank> ?r } ORDER BY ?r",
        &dict,
    )
    .unwrap();
    let sols = Lusail::default()
        .run_with(&fed, &q, &ExecOptions::default())
        .unwrap()
        .solutions;
    let names: Vec<String> = (0..sols.len())
        .map(|i| dict.decode(sols.get(i, "n").unwrap()).lexical().to_string())
        .collect();
    assert_eq!(names, ["bob", "carol", "alice"]);
    assert_eq!(sols.vars, ["n"]);
}
