//! The model registry: the Model table of Figure 6 (`Mid → Classpath`) plus
//! the extension API of Section 3.1 — "users can optionally implement more
//! models through an extension API without recompiling".

use std::sync::Arc;

use crate::gorilla::Gorilla;
use crate::multi::PerSeries;
use crate::pmc::PmcMean;
use crate::swing::Swing;
use crate::ModelType;

/// Mid of the constant PMC-Mean model.
pub const MID_PMC_MEAN: u8 = 0;
/// Mid of the linear Swing model.
pub const MID_SWING: u8 = 1;
/// Mid of the lossless Gorilla model.
pub const MID_GORILLA: u8 = 2;

/// Maps Mids to model types, in fitting order: during ingestion the segment
/// generator tries models in registry order (Section 3.2, step ii), so cheap
/// constant models come first and the lossless fallback last.
#[derive(Clone)]
pub struct ModelRegistry {
    types: Vec<Arc<dyn ModelType>>,
}

impl ModelRegistry {
    /// The three models distributed with ModelarDB+ Core: PMC-Mean, Swing,
    /// Gorilla (Section 3.1), in that fitting order.
    pub fn standard() -> Self {
        Self {
            types: vec![Arc::new(PmcMean), Arc::new(Swing), Arc::new(Gorilla)],
        }
    }

    /// The Section 5.1 baseline configuration: the same three models wrapped
    /// so each series in a group gets its own sub-model inside one segment.
    /// Used by the MGC-ablation benchmarks.
    pub fn per_series_baseline() -> Self {
        Self {
            types: vec![
                Arc::new(PerSeries::new(Arc::new(PmcMean))),
                Arc::new(PerSeries::new(Arc::new(Swing))),
                Arc::new(PerSeries::new(Arc::new(Gorilla))),
            ],
        }
    }

    /// An empty registry for fully custom model sets.
    pub fn empty() -> Self {
        Self { types: Vec::new() }
    }

    /// Registers a user-defined model type and returns its Mid.
    ///
    /// # Panics
    /// Panics if more than 256 model types are registered (Mids are `u8`).
    pub fn register(&mut self, model: Arc<dyn ModelType>) -> u8 {
        assert!(self.types.len() < 256, "mid space exhausted");
        self.types.push(model);
        (self.types.len() - 1) as u8
    }

    /// The model type with the given Mid.
    pub fn get(&self, mid: u8) -> Option<&Arc<dyn ModelType>> {
        self.types.get(mid as usize)
    }

    /// The Mid of the model type called `name`.
    pub fn mid_of(&self, name: &str) -> Option<u8> {
        self.types
            .iter()
            .position(|t| t.name() == name)
            .map(|i| i as u8)
    }

    /// All registered model types with their Mids, in fitting order.
    pub fn iter(&self) -> impl Iterator<Item = (u8, &Arc<dyn ModelType>)> {
        self.types.iter().enumerate().map(|(i, t)| (i as u8, t))
    }

    /// Whether every registered model type promises attained extremes
    /// ([`ModelType::attained_extremes`]).
    pub fn attained_extremes(&self) -> bool {
        self.types.iter().all(|t| t.attained_extremes())
    }

    /// Number of registered model types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True when no models are registered.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The names of all models, by Mid — the Model table of Figure 6.
    pub fn names(&self) -> Vec<&str> {
        self.types.iter().map(|t| t.name()).collect()
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::standard()
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fitter, SegmentAgg};
    use mdb_types::{ErrorBound, Timestamp, Value};

    #[test]
    fn standard_registry_matches_figure6_model_table() {
        let r = ModelRegistry::standard();
        assert_eq!(r.names(), vec!["PMC-Mean", "Swing", "Gorilla"]);
        assert_eq!(r.get(MID_PMC_MEAN).unwrap().name(), "PMC-Mean");
        assert_eq!(r.get(MID_SWING).unwrap().name(), "Swing");
        assert_eq!(r.get(MID_GORILLA).unwrap().name(), "Gorilla");
        assert!(r.get(3).is_none());
        assert_eq!(r.mid_of("Swing"), Some(MID_SWING));
        assert_eq!(r.mid_of("nope"), None);
    }

    /// A trivial user-defined model: stores the first value, represents
    /// everything after as that value with unbounded error — only usable at
    /// enormous error bounds, but exactly what the extension API allows.
    struct FirstValue;

    struct FirstValueFitter {
        bound: ErrorBound,
        first: Option<Value>,
        len: usize,
        limit: usize,
    }

    impl crate::ModelType for FirstValue {
        fn name(&self) -> &str {
            "FirstValue"
        }
        fn fitter(&self, bound: ErrorBound, _n: usize, limit: usize) -> Box<dyn Fitter> {
            Box::new(FirstValueFitter {
                bound,
                first: None,
                len: 0,
                limit,
            })
        }
        fn grid(&self, params: &[u8], n_series: usize, count: usize) -> Option<Vec<Value>> {
            let v = Value::from_le_bytes(params.get(..4)?.try_into().ok()?);
            Some(vec![v; n_series * count])
        }
        fn agg(
            &self,
            _p: &[u8],
            _n: usize,
            _c: usize,
            _r: (usize, usize),
            _s: usize,
        ) -> Option<SegmentAgg> {
            None
        }
    }

    impl Fitter for FirstValueFitter {
        fn append(&mut self, _t: Timestamp, values: &[Value]) -> bool {
            if self.len >= self.limit {
                return false;
            }
            match self.first {
                None => self.first = Some(values[0]),
                Some(f) => {
                    if !values.iter().all(|&v| self.bound.within(f, v)) {
                        return false;
                    }
                }
            }
            self.len += 1;
            true
        }
        fn len(&self) -> usize {
            self.len
        }
        fn params(&self) -> Vec<u8> {
            self.first.unwrap_or(0.0).to_le_bytes().to_vec()
        }
        fn byte_size(&self) -> usize {
            4
        }
    }

    #[test]
    fn user_defined_models_can_be_registered_and_used() {
        let mut r = ModelRegistry::standard();
        let mid = r.register(Arc::new(FirstValue));
        assert_eq!(mid, 3);
        let model = r.get(mid).unwrap();
        let mut f = model.fitter(ErrorBound::absolute(100.0), 1, 50);
        assert!(f.append(0, &[5.0]));
        assert!(f.append(100, &[55.0]));
        let grid = model.grid(&f.params(), 1, 2).unwrap();
        assert_eq!(grid, vec![5.0, 5.0]);
    }

    #[test]
    fn per_series_baseline_wraps_all_three() {
        let r = ModelRegistry::per_series_baseline();
        assert_eq!(
            r.names(),
            vec!["PMC-Mean/PerSeries", "Swing/PerSeries", "Gorilla/PerSeries"]
        );
    }
}
