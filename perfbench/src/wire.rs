//! Reading the server's JSON lines: a generic value parser over the
//! serde shim, field access, and the counters of the `stats` op.

use fannet_search::SearchStats;
use serde::{Deserialize, Value};

/// A parsed JSON document (the serde_json shim parses typed values only,
/// so the raw value goes through this wrapper).
struct Doc(Value);

impl<'de> Deserialize<'de> for Doc {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        serde::Deserializer::take_value(d).map(Doc)
    }
}

/// Parses one JSON line.
///
/// # Errors
///
/// Returns the parser's message for malformed JSON.
pub fn parse(line: &str) -> Result<Value, String> {
    serde_json::from_str::<Doc>(line)
        .map(|d| d.0)
        .map_err(|e| format!("malformed JSON: {e}"))
}

/// Field `key` of an object value.
#[must_use]
pub fn get<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Field path `keys` of nested objects.
#[must_use]
pub fn path<'v>(value: &'v Value, keys: &[&str]) -> Option<&'v Value> {
    keys.iter().try_fold(value, |v, k| get(v, k))
}

/// A non-negative integer value.
#[must_use]
pub fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// A string value.
#[must_use]
pub fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Cumulative engine counters from one `stats` response.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Exact-key cache hits.
    pub exact_hits: u64,
    /// Subsumption cache hits.
    pub subsumption_hits: u64,
    /// Cache misses (each one a solver run).
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// Input-noise solver counters of every solver run (`solver_search`).
    pub solver: SearchStats,
}

impl EngineCounters {
    /// Reads the counters of a `stats` response line.
    ///
    /// # Errors
    ///
    /// Returns a message when the line is not a `stats` response.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let v = parse(line)?;
        let count = |key: &str| {
            get(&v, key)
                .and_then(as_u64)
                .ok_or_else(|| format!("stats response lacks `{key}`: {line}"))
        };
        let solver = get(&v, "solver_search")
            .cloned()
            .ok_or_else(|| format!("stats response lacks `solver_search`: {line}"))?;
        Ok(EngineCounters {
            exact_hits: count("exact_hits")?,
            subsumption_hits: count("subsumption_hits")?,
            misses: count("misses")?,
            evictions: count("evictions")?,
            solver: serde::de::from_value(solver).map_err(|e| e.to_string())?,
        })
    }

    /// Counters accumulated between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &EngineCounters) -> EngineCounters {
        let s = &self.solver;
        let e = &earlier.solver;
        EngineCounters {
            exact_hits: self.exact_hits - earlier.exact_hits,
            subsumption_hits: self.subsumption_hits - earlier.subsumption_hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            solver: SearchStats {
                boxes_visited: s.boxes_visited - e.boxes_visited,
                splits: s.splits - e.splits,
                pruned_correct: s.pruned_correct - e.pruned_correct,
                proved_wrong: s.proved_wrong - e.proved_wrong,
                exact_evals: s.exact_evals - e.exact_evals,
                screen_hits: s.screen_hits - e.screen_hits,
                screen_fallbacks: s.screen_fallbacks - e.screen_fallbacks,
                interval_hits: s.interval_hits - e.interval_hits,
                interval_fallbacks: s.interval_fallbacks - e.interval_fallbacks,
                zonotope_hits: s.zonotope_hits - e.zonotope_hits,
                zonotope_fallbacks: s.zonotope_fallbacks - e.zonotope_fallbacks,
                exact_decisions: s.exact_decisions - e.exact_decisions,
                exact_fallbacks: s.exact_fallbacks - e.exact_fallbacks,
                concrete_evals: s.concrete_evals - e.concrete_evals,
                budget_exhausted: s.budget_exhausted,
                ..SearchStats::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fields_and_paths() {
        let v = parse(r#"{"op":"check","id":3,"trace":{"wall_ns":12,"cache":"miss"}}"#).unwrap();
        assert_eq!(get(&v, "id").and_then(as_u64), Some(3));
        assert_eq!(path(&v, &["trace", "wall_ns"]).and_then(as_u64), Some(12));
        assert_eq!(path(&v, &["trace", "cache"]).and_then(as_str), Some("miss"));
        assert!(path(&v, &["trace", "queue_ns"]).is_none());
        assert!(parse("{\"op\":").is_err());
    }
}
