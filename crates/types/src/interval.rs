//! Closed value intervals, the bound type behind value pruning.
//!
//! A [`ValueInterval`] describes the range a set of stored values is known to
//! lie in (per segment, and per block in the store's block statistics) or
//! the range a query predicate accepts (after rewriting `Value`
//! comparisons). Pruning is sound because intervals only ever
//! *over*-approximate: a block or segment whose interval does not intersect
//! the predicate interval cannot contain a matching value, so it can be
//! skipped before any model is decoded.

use serde::{Deserialize, Serialize};

/// A closed interval `[lo, hi]` over (f64-widened) values.
///
/// `lo > hi` encodes the empty interval; [`ValueInterval::ALL`] is the full
/// line. Operations treat `NaN` endpoints as "unknown" by widening to
/// [`ValueInterval::ALL`], so value statistics fail open, never closed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValueInterval {
    /// Inclusive lower endpoint.
    pub lo: f64,
    /// Inclusive upper endpoint.
    pub hi: f64,
}

impl ValueInterval {
    /// The full line: matches every value.
    pub const ALL: ValueInterval = ValueInterval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// The empty interval: matches nothing.
    pub const EMPTY: ValueInterval = ValueInterval {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// The interval `[lo, hi]`; NaN endpoints widen to [`ValueInterval::ALL`].
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo.is_nan() || hi.is_nan() {
            return Self::ALL;
        }
        Self { lo, hi }
    }

    /// The degenerate interval containing exactly `v`.
    pub fn point(v: f64) -> Self {
        Self::new(v, v)
    }

    /// True when no value is contained.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Whether `v` lies in the interval.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether the two intervals share at least one value.
    pub fn intersects(&self, other: &ValueInterval) -> bool {
        // Empties first: `[∞, −∞]` against `[−∞, ∞]` would otherwise compare
        // true through the infinite endpoints.
        !self.is_empty() && !other.is_empty() && self.lo <= other.hi && other.lo <= self.hi
    }

    /// Whether every value of `other` lies in `self`.
    pub fn covers(&self, other: &ValueInterval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// The smallest interval containing both (block statistics widen on
    /// every insert).
    pub fn union(&self, other: &ValueInterval) -> ValueInterval {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        ValueInterval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// The intersection of both intervals (predicate conjunction).
    pub fn intersection(&self, other: &ValueInterval) -> ValueInterval {
        ValueInterval {
            lo: self.lo.max(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// The image of the interval under multiplication by `factor` — how a
    /// *raw*-value predicate maps into the *stored* (scaled) domain of a
    /// series with scaling constant `factor`. Negative factors flip the
    /// endpoints.
    pub fn scaled(&self, factor: f64) -> ValueInterval {
        if self.is_empty() {
            return Self::EMPTY;
        }
        let a = self.lo * factor;
        let b = self.hi * factor;
        // 0 × ±∞ is NaN; an unbounded endpoint scaled by zero is just zero.
        let a = if a.is_nan() { 0.0 } else { a };
        let b = if b.is_nan() { 0.0 } else { b };
        ValueInterval::new(a.min(b), a.max(b))
    }

    /// The interval with each finite endpoint stepped two ulps outward.
    ///
    /// Callers that derive an interval through rounded arithmetic (e.g. the
    /// scaled push-down multiplies by a scaling constant while the exact
    /// per-point filter divides by it) widen it before using it to *prune*,
    /// so a half-ulp disagreement between the two roundings can never
    /// exclude a value the exact comparison would accept.
    pub fn widened(&self) -> ValueInterval {
        if self.is_empty() {
            return *self;
        }
        ValueInterval {
            lo: self.lo.next_down().next_down(),
            hi: self.hi.next_up().next_up(),
        }
    }
}

impl Default for ValueInterval {
    fn default() -> Self {
        Self::ALL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_intersects_are_inclusive() {
        let i = ValueInterval::new(1.0, 5.0);
        assert!(i.contains(1.0));
        assert!(i.contains(5.0));
        assert!(!i.contains(5.1));
        assert!(i.intersects(&ValueInterval::new(5.0, 9.0)));
        assert!(i.intersects(&ValueInterval::new(-3.0, 1.0)));
        assert!(!i.intersects(&ValueInterval::new(5.2, 9.0)));
    }

    #[test]
    fn empty_interval_matches_nothing() {
        assert!(ValueInterval::EMPTY.is_empty());
        assert!(!ValueInterval::EMPTY.contains(0.0));
        assert!(!ValueInterval::EMPTY.intersects(&ValueInterval::ALL));
        assert!(ValueInterval::ALL.covers(&ValueInterval::EMPTY));
    }

    #[test]
    fn union_and_intersection() {
        let a = ValueInterval::new(0.0, 2.0);
        let b = ValueInterval::new(1.0, 5.0);
        assert_eq!(a.union(&b), ValueInterval::new(0.0, 5.0));
        assert_eq!(a.intersection(&b), ValueInterval::new(1.0, 2.0));
        assert!(a.intersection(&ValueInterval::new(3.0, 4.0)).is_empty());
        assert_eq!(ValueInterval::EMPTY.union(&a), a);
        assert_eq!(a.union(&ValueInterval::EMPTY), a);
    }

    #[test]
    fn covers_is_containment() {
        let outer = ValueInterval::new(0.0, 10.0);
        assert!(outer.covers(&ValueInterval::new(2.0, 8.0)));
        assert!(outer.covers(&outer));
        assert!(!outer.covers(&ValueInterval::new(2.0, 11.0)));
    }

    #[test]
    fn scaling_flips_under_negative_factors() {
        let i = ValueInterval::new(1.0, 3.0);
        assert_eq!(i.scaled(2.0), ValueInterval::new(2.0, 6.0));
        assert_eq!(i.scaled(-1.0), ValueInterval::new(-3.0, -1.0));
        // Unbounded endpoints survive scaling, including by zero.
        let half = ValueInterval::new(5.0, f64::INFINITY);
        assert_eq!(
            half.scaled(-2.0),
            ValueInterval::new(f64::NEG_INFINITY, -10.0)
        );
        assert_eq!(half.scaled(0.0), ValueInterval::new(0.0, 0.0));
    }

    #[test]
    fn widened_steps_finite_endpoints_outward() {
        let i = ValueInterval::new(1.0, 2.0);
        let w = i.widened();
        assert!(w.lo < 1.0 && w.hi > 2.0);
        assert!(w.covers(&i));
        // Infinite endpoints and the empty interval are unchanged.
        assert_eq!(ValueInterval::ALL.widened(), ValueInterval::ALL);
        assert!(ValueInterval::EMPTY.widened().is_empty());
    }

    #[test]
    fn nan_endpoints_fail_open() {
        assert_eq!(ValueInterval::new(f64::NAN, 1.0), ValueInterval::ALL);
        assert_eq!(ValueInterval::new(1.0, f64::NAN), ValueInterval::ALL);
    }
}
