//! Answer checking against the generator's centralized oracle store.
//!
//! The oracle answer of each query is computed once before a measured
//! window opens; the oracle store itself is dropped before the window, so
//! it does not count in `peak_heap_mb`.

use lusail_benchdata::NamedQuery;
use lusail_rdf::Dictionary;
use lusail_sparql::SolutionSet;
use lusail_store::TripleStore;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// The oracle's answer to one query.
pub struct Expected {
    /// The query has a `LIMIT`: any `rows` of the unlimited answer do.
    limited: bool,
    /// The canonical (sorted columns, sorted rows) unlimited answer.
    canonical: SolutionSet,
    /// How many rows a correct answer has.
    rows: usize,
    dict: Arc<Dictionary>,
    /// Rendered oracle rows per header line, built on first use.
    rendered: Mutex<HashMap<String, Arc<HashSet<String>>>>,
}

impl Expected {
    pub fn new(oracle: &TripleStore, nq: &NamedQuery, dict: &Arc<Dictionary>) -> Expected {
        let mut unlimited = nq.query.clone();
        unlimited.limit = None;
        let canonical = lusail_store::eval::evaluate(oracle, &unlimited).canonicalize();
        let rows = match nq.query.limit {
            Some(limit) => canonical.len().min(limit),
            None => canonical.len(),
        };
        Expected {
            limited: nq.query.limit.is_some(),
            canonical,
            rows,
            dict: Arc::clone(dict),
            rendered: Mutex::new(HashMap::new()),
        }
    }

    /// True when an engine answer equals the oracle's: the same multiset
    /// of rows, or for a `LIMIT` query the right number of rows, each one
    /// a row of the unlimited answer.
    pub fn matches(&self, got: &SolutionSet) -> bool {
        let got = got.canonicalize();
        if !self.limited {
            return got == self.canonical;
        }
        got.len() == self.rows
            && got.vars == self.canonical.vars
            && got
                .rows
                .iter()
                .all(|r| self.canonical.rows.binary_search(r).is_ok())
    }

    /// True when an HTTP response carries a correct answer: status 200,
    /// a header naming the answer's variables, every shown row among the
    /// oracle's rendered rows, and shown rows plus the `… (N more rows)`
    /// marker adding up to the oracle's row count.
    pub fn matches_body(&self, status: u16, body: &str) -> bool {
        if status != 200 {
            return false;
        }
        let mut lines = body.lines();
        let Some(header) = lines.next() else {
            return false;
        };
        let Some(rendered) = self.rendered_rows(header) else {
            return false;
        };
        let mut total = 0usize;
        for line in lines {
            if let Some(more) = line
                .strip_prefix("… (")
                .and_then(|rest| rest.strip_suffix(" more rows)"))
            {
                match more.parse::<usize>() {
                    Ok(n) => total += n,
                    Err(_) => return false,
                }
            } else if rendered.contains(line) {
                total += 1;
            } else {
                return false;
            }
        }
        total == self.rows
    }

    /// Renders the oracle's rows for a header in advance, so checking a
    /// body inside a measured window does no rendering of its own.
    pub fn prepare_header(&self, vars: &[String]) {
        self.rendered_rows(&vars.join("\t"));
    }

    /// The oracle's rows rendered like `render_solutions` with the
    /// columns in `header`'s order; `None` when `header` does not name
    /// exactly the answer's variables.
    fn rendered_rows(&self, header: &str) -> Option<Arc<HashSet<String>>> {
        let mut cache = self.rendered.lock().expect("render cache poisoned");
        if let Some(rows) = cache.get(header) {
            return Some(Arc::clone(rows));
        }
        let vars: Vec<String> = header.split('\t').map(str::to_string).collect();
        let mut sorted = vars.clone();
        sorted.sort();
        if sorted != self.canonical.vars {
            return None;
        }
        let rows: HashSet<String> = self
            .canonical
            .project(&vars)
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|c| match c {
                        Some(id) => self.dict.decode(*id).to_string(),
                        None => "UNDEF".to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join("\t")
            })
            .collect();
        let rows = Arc::new(rows);
        cache.insert(header.to_string(), Arc::clone(&rows));
        Some(rows)
    }
}
