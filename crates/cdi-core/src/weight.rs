//! Event weighting (Section IV-C of the paper).
//!
//! Severity as perceived by experts and by customers need not coincide, so
//! the weight of an event blends two perspectives:
//!
//! - **Expert weight** (Eq. 1): the extractor's severity level `i` among `m`
//!   increasingly severe levels gives `l_i = i/m`.
//! - **Customer weight** (Eq. 2): events are ranked by the count of related
//!   support tickets over the past year and proportionally distributed into
//!   `n` levels; the `j`-th level gives `p_j = j/n`.
//! - **Blend** (Eq. 3): AHP priorities `α₁, α₂` over the two perspectives
//!   give `w = (α₁·l_i + α₂·p_j) / (α₁ + α₂)`.
//!
//! Events with no ticket history fall back to the expert weight alone
//! (an explicit policy; the paper leaves this case open).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::error::{CdiError, Result};
use crate::event::{EventSpan, Severity};
use crate::num::{count_f64, level_of, snap_weight};
use crate::period::PeriodedEvent;
use statskit::ahp::JudgmentMatrix;

/// Expert weight of a severity level per Eq. 1: `l_i = i / m`.
pub fn expert_weight(severity: Severity) -> f64 {
    count_f64(severity.rank()) / count_f64(Severity::count())
}

/// Customer-perceived levels derived from ticket counts per Eq. 2.
///
/// Events are ranked by ascending ticket count; the event at rank `r` among
/// `E` events falls into level `j = ceil(r/E · n)` and gets `p_j = j/n`.
/// (The paper's Example 3: a count above 43% of events with `n = 4` lands in
/// level 2, weight 0.5.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CustomerWeights {
    n_levels: usize,
    weights: HashMap<String, f64>,
}

impl CustomerWeights {
    /// Build from `(event name, ticket count)` pairs.
    pub fn from_ticket_counts(
        counts: &HashMap<String, u64>,
        n_levels: usize,
    ) -> Result<Self> {
        if n_levels == 0 {
            return Err(CdiError::invalid("n_levels must be positive"));
        }
        let mut ranked: Vec<(&String, &u64)> = counts.iter().collect();
        // Ascending ticket counts; ties broken by name for determinism.
        ranked.sort_by(|a, b| a.1.cmp(b.1).then(a.0.cmp(b.0)));
        let e = ranked.len();
        let mut weights = HashMap::with_capacity(e);
        for (idx, (name, _)) in ranked.into_iter().enumerate() {
            let pct = count_f64(idx + 1) / count_f64(e);
            let level = level_of(pct, n_levels);
            weights.insert(name.clone(), count_f64(level) / count_f64(n_levels));
        }
        Ok(CustomerWeights { n_levels, weights })
    }

    /// Customer weight `p_j` of an event name, if it had ticket history.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.weights.get(name).copied()
    }

    /// Number of customer levels `n`.
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }
}

/// The perspective priorities `(α₁, α₂)` of Eq. 3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Priorities {
    /// Weight of the expert perspective.
    pub expert: f64,
    /// Weight of the customer perspective.
    pub customer: f64,
}

impl Priorities {
    /// Equal importance — the paper's Example 3 configuration.
    pub fn equal() -> Self {
        Priorities { expert: 0.5, customer: 0.5 }
    }

    /// Derive priorities from an AHP pairwise judgment: how much more
    /// important the expert perspective is than the customer perspective
    /// (Saaty 1–9 scale; values < 1 favour the customer side).
    ///
    /// Returns an error if the judgment matrix fails AHP validation.
    pub fn from_ahp_judgment(expert_over_customer: f64) -> Result<Self> {
        let m = JudgmentMatrix::from_upper_triangle(2, &[expert_over_customer])?;
        let r = m.priorities()?;
        Ok(Priorities { expert: r.priorities[0], customer: r.priorities[1] })
    }
}

/// The full weight table: customer weights plus perspective priorities.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeightTable {
    customer: CustomerWeights,
    priorities: Priorities,
}

impl WeightTable {
    /// Assemble a weight table.
    pub fn new(customer: CustomerWeights, priorities: Priorities) -> Result<Self> {
        if priorities.expert <= 0.0 || priorities.customer < 0.0 {
            return Err(CdiError::invalid(format!(
                "priorities must be positive (expert) / non-negative (customer), got {priorities:?}"
            )));
        }
        Ok(WeightTable { customer, priorities })
    }

    /// A table with no ticket history: every event gets its expert weight.
    pub fn expert_only() -> Self {
        WeightTable {
            customer: CustomerWeights { n_levels: 1, weights: HashMap::new() },
            priorities: Priorities { expert: 1.0, customer: 0.0 },
        }
    }

    /// Final weight of an event per Eq. 3.
    ///
    /// Falls back to the expert weight when the event has no ticket history.
    pub fn weight(&self, name: &str, severity: Severity) -> f64 {
        let l = expert_weight(severity);
        match self.customer.get(name) {
            Some(p) => {
                let (a1, a2) = (self.priorities.expert, self.priorities.customer);
                (a1 * l + a2 * p) / (a1 + a2)
            }
            None => l,
        }
    }

    /// Convert perioded events into weighted spans for Algorithm 1. The
    /// weight is snapped to the integration quantum (DESIGN.md §5, decision
    /// 7), so a drill-down shows the weight that was integrated.
    pub fn assign(&self, events: &[PeriodedEvent]) -> Vec<EventSpan> {
        events
            .iter()
            .map(|pe| EventSpan {
                name: pe.name.clone(),
                category: pe.category,
                start: pe.range.start,
                end: pe.range.end,
                weight: snap_weight(self.weight(&pe.name, pe.severity)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Category, Target};
    use crate::time::TimeRange;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "expected {b}, got {a}");
    }

    #[test]
    fn expert_weights_follow_eq1() {
        close(expert_weight(Severity::Warning), 0.25, 1e-12);
        close(expert_weight(Severity::Error), 0.5, 1e-12);
        close(expert_weight(Severity::Critical), 0.75, 1e-12);
        close(expert_weight(Severity::Fatal), 1.0, 1e-12);
    }

    #[test]
    fn customer_levels_distribute_by_rank() {
        // 8 events, 4 levels → two events per level by rank.
        let counts: HashMap<String, u64> =
            (0..8).map(|i| (format!("e{i}"), (i * 10) as u64)).collect();
        let cw = CustomerWeights::from_ticket_counts(&counts, 4).unwrap();
        close(cw.get("e0").unwrap(), 0.25, 1e-12); // rank 1-2 → level 1
        close(cw.get("e1").unwrap(), 0.25, 1e-12);
        close(cw.get("e2").unwrap(), 0.5, 1e-12);
        close(cw.get("e6").unwrap(), 1.0, 1e-12);
        close(cw.get("e7").unwrap(), 1.0, 1e-12);
        assert!(cw.get("missing").is_none());
        assert_eq!(cw.n_levels(), 4);
    }

    #[test]
    fn customer_levels_tie_break_is_deterministic() {
        let mut counts = HashMap::new();
        counts.insert("b".to_string(), 5u64);
        counts.insert("a".to_string(), 5u64);
        let cw1 = CustomerWeights::from_ticket_counts(&counts, 2).unwrap();
        let cw2 = CustomerWeights::from_ticket_counts(&counts, 2).unwrap();
        assert_eq!(cw1, cw2);
        // With ties, names sort ascending: "a" ranks first (level 1).
        close(cw1.get("a").unwrap(), 0.5, 1e-12);
        close(cw1.get("b").unwrap(), 1.0, 1e-12);
    }

    #[test]
    fn rejects_zero_levels() {
        assert!(CustomerWeights::from_ticket_counts(&HashMap::new(), 0).is_err());
    }

    #[test]
    fn paper_example_3_reproduced() {
        // An event at the 43rd ticket percentile among n = 4 levels lands in
        // level 2 (p = 0.5); critical severity gives l = 0.75; equal AHP
        // priorities give w = 0.625.
        let counts: HashMap<String, u64> = (0..100)
            .map(|i| (format!("e{i}"), i as u64))
            .collect();
        let cw = CustomerWeights::from_ticket_counts(&counts, 4).unwrap();
        // e42 is rank 43 of 100 → pct 0.43 → level 2.
        close(cw.get("e42").unwrap(), 0.5, 1e-12);
        let table = WeightTable::new(cw, Priorities::equal()).unwrap();
        close(table.weight("e42", Severity::Critical), 0.625, 1e-12);
    }

    #[test]
    fn ahp_judgment_drives_priorities() {
        // Equal importance → α = (0.5, 0.5).
        let p = Priorities::from_ahp_judgment(1.0).unwrap();
        close(p.expert, 0.5, 1e-9);
        // Expert 3x more important → α ≈ (0.75, 0.25).
        let p = Priorities::from_ahp_judgment(3.0).unwrap();
        close(p.expert, 0.75, 1e-9);
        close(p.customer, 0.25, 1e-9);
        assert!(Priorities::from_ahp_judgment(-1.0).is_err());
    }

    #[test]
    fn missing_ticket_history_falls_back_to_expert() {
        let counts: HashMap<String, u64> = [("known".to_string(), 10u64)].into();
        let cw = CustomerWeights::from_ticket_counts(&counts, 4).unwrap();
        let table = WeightTable::new(cw, Priorities::equal()).unwrap();
        close(table.weight("unknown", Severity::Error), 0.5, 1e-12);
        // "known" is the single event → rank 1/1 → level 4 → p = 1.0.
        close(table.weight("known", Severity::Error), 0.75, 1e-12);
    }

    #[test]
    fn expert_only_table() {
        let table = WeightTable::expert_only();
        close(table.weight("anything", Severity::Fatal), 1.0, 1e-12);
        close(table.weight("anything", Severity::Warning), 0.25, 1e-12);
    }

    #[test]
    fn assign_produces_spans() {
        let table = WeightTable::expert_only();
        let pe = PeriodedEvent {
            name: "slow_io".into(),
            category: Category::Performance,
            target: Target::Vm(1),
            range: TimeRange::new(100, 200),
            severity: Severity::Critical,
        };
        let spans = table.assign(&[pe]);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start, 100);
        assert_eq!(spans[0].end, 200);
        close(spans[0].weight, 0.75, 1e-12);
        assert_eq!(spans[0].category, Category::Performance);
    }

    #[test]
    fn new_rejects_bad_priorities() {
        let cw = CustomerWeights::from_ticket_counts(&HashMap::new(), 4).unwrap();
        assert!(WeightTable::new(cw.clone(), Priorities { expert: 0.0, customer: 1.0 }).is_err());
        assert!(WeightTable::new(cw, Priorities { expert: 0.5, customer: -0.1 }).is_err());
    }
}
