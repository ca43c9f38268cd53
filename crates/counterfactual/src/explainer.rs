//! Unified-layer `Explainer` impls for the counterfactual family
//! (DESIGN.md §9): Wachter gradient descent, GeCo's genetic search under
//! plausibility/feasibility constraints, and DiCE's diverse set.
//!
//! Dispatch contract: `workers > 1` selects GeCo's fixed-chunk parallel
//! multi-start search and DiCE's candidate pool (`k · restarts`
//! independent searches, candidate `c` at `child_seed(seed, c)`, merged
//! by a greedy diverse selection) — both worker-count invariant though a
//! different search schedule than `workers == 1`, and for DiCE the pool
//! is the grid the shard layer partitions. Wachter is deterministic
//! gradient descent with no random draws, so every execution plan
//! returns the same result. The searches call the model one candidate
//! at a time, so `batched` is a no-op, and none has a budgeted path; a
//! `SampleBudget` is rejected as [`XaiError::Unsupported`].

use xai_core::shard::{
    chunks_json, flatten_chunks, index_field, num_field, nums_field, wire_error, DrawGrid,
    ShardableExplainer,
};
use xai_core::taxonomy::method_card;
use xai_core::{
    catch_model, validate, Counterfactual, ExplainRequest, Explainer, Explanation, Json,
    MethodCard, ModelOracle, XaiError, XaiResult,
};
use xai_rand::child_seed;
use xai_rand::rngs::StdRng;
use xai_rand::SeedableRng;

use crate::dice::{DiceConfig, DiceExplainer};
use crate::geco::{try_geco, try_geco_parallel, GecoConfig, Plaf};
use crate::wachter::{try_wachter_counterfactual, GradientModel, WachterConfig};

fn reject_budget(method: &str, req: &ExplainRequest<'_>) -> XaiResult<()> {
    if req.plan.budgeted() {
        return Err(XaiError::Unsupported {
            context: format!("{method} has no budgeted execution path; clear RunConfig::budget"),
        });
    }
    Ok(())
}

/// Adapter: the Wachter gradient surface over any oracle that advertises
/// a gradient.
struct OracleGradient<'a>(&'a dyn ModelOracle);

impl GradientModel for OracleGradient<'_> {
    fn output(&self, x: &[f64]) -> f64 {
        self.0.predict(x)
    }
    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        self.0.gradient(x).expect("gradient availability checked before dispatch")
    }
}

/// Wachter-style gradient counterfactuals (§2.1.4) through the unified
/// layer; needs a differentiable model.
#[derive(Clone, Copy, Debug, Default)]
pub struct WachterMethod {
    /// Annealing schedule and step sizes.
    pub config: WachterConfig,
}

impl Explainer for WachterMethod {
    fn card(&self) -> MethodCard {
        method_card("Wachter counterfactuals")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("Wachter counterfactuals", req)?;
        let instance = req.need_instance("Wachter counterfactuals")?;
        if model.gradient(instance).is_none() {
            return Err(XaiError::Unsupported {
                context: "Wachter counterfactual search needs a differentiable model; \
                          this oracle offers no gradient"
                    .into(),
            });
        }
        let adapter = OracleGradient(model);
        let cf = try_wachter_counterfactual(&adapter, req.data, instance, self.config)?;
        Ok(Explanation::Counterfactuals(vec![cf]))
    }
}

/// GeCo genetic counterfactual search (§2.1.4) through the unified
/// layer; feasibility rules come from the dataset schema's mutability
/// annotations ([`Plaf::from_schema`]).
#[derive(Clone, Copy, Debug)]
pub struct GecoMethod {
    /// Population / generation schedule.
    pub config: GecoConfig,
    /// Restarts for the parallel multi-start search (`workers > 1`).
    pub starts: usize,
}

impl Default for GecoMethod {
    fn default() -> Self {
        Self { config: GecoConfig::default(), starts: 4 }
    }
}

impl Explainer for GecoMethod {
    fn card(&self) -> MethodCard {
        method_card("GeCo")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("GeCo", req)?;
        let instance = req.need_instance("GeCo")?;
        let plaf = Plaf::from_schema(req.data);
        let f = |x: &[f64]| model.predict(x);
        let cf = if req.plan.parallel() {
            try_geco_parallel(
                &f,
                req.data,
                instance,
                &plaf,
                self.config,
                req.plan.seed,
                self.starts,
                req.plan.workers,
            )?
        } else {
            try_geco(&f, req.data, instance, &plaf, self.config, req.plan.seed)?
        };
        Ok(Explanation::Counterfactuals(vec![cf]))
    }
}

/// DiCE diverse counterfactuals (§2.1.4) through the unified layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiceMethod {
    /// Set size, diversity/proximity trade-off and search schedule.
    pub config: DiceConfig,
}

impl Explainer for DiceMethod {
    fn card(&self) -> MethodCard {
        method_card("DiCE")
    }

    fn explain(&self, model: &dyn ModelOracle, req: &ExplainRequest<'_>) -> XaiResult<Explanation> {
        reject_budget("DiCE", req)?;
        let instance = req.need_instance("DiCE")?;
        let explainer = DiceExplainer::fit(req.data);
        let f = |x: &[f64]| model.predict(x);
        let cfs = if req.plan.parallel() {
            explainer.try_generate_pool(&f, instance, self.config, req.plan.seed, req.plan.workers)?
        } else {
            explainer.try_generate(&f, instance, self.config, req.plan.seed)?
        };
        Ok(Explanation::Counterfactuals(cfs))
    }

    fn as_shardable(&self) -> Option<&dyn ShardableExplainer> {
        Some(self)
    }
}

impl DiceMethod {
    /// Rebuilds the method from its canonical shard-config JSON.
    pub fn from_config_json(config: &Json) -> XaiResult<Self> {
        const WHAT: &str = "DiCE config";
        Ok(Self {
            config: DiceConfig {
                k: index_field(config, "k", WHAT)?,
                proximity_weight: num_field(config, "proximity_weight", WHAT)?,
                diversity_weight: num_field(config, "diversity_weight", WHAT)?,
                sparsity_weight: num_field(config, "sparsity_weight", WHAT)?,
                iterations: index_field(config, "iterations", WHAT)?,
                restarts: index_field(config, "restarts", WHAT)?,
            },
        })
    }

    /// Size of the candidate pool the parallel and sharded paths search.
    fn pool(&self) -> usize {
        (self.config.k * self.config.restarts.max(1)).max(1)
    }
}

impl ShardableExplainer for DiceMethod {
    fn draw_grid(&self, req: &ExplainRequest<'_>) -> XaiResult<DrawGrid> {
        reject_budget("DiCE", req)?;
        req.need_instance("DiCE")?;
        Ok(DrawGrid { total_draws: self.pool(), chunk_size: 1 })
    }

    fn explain_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        chunks: std::ops::Range<usize>,
    ) -> XaiResult<Json> {
        let instance = req.need_instance("DiCE")?;
        validate::finite_slice("DiCE instance", instance)?;
        let explainer = DiceExplainer::fit(req.data);
        let f = |x: &[f64]| model.predict(x);
        let original_output = catch_model("DiCE original prediction", || f(instance))?;
        let target_positive = original_output < 0.5;
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            let mut rng = StdRng::seed_from_u64(child_seed(req.plan.seed, c as u64));
            let candidate = catch_model("DiCE local search", || {
                explainer.pool_candidate(&f, instance, target_positive, self.config, &mut rng)
            })?;
            out.push(match candidate {
                None => Json::Null,
                Some((cf, loss)) => {
                    if !loss.is_finite() || cf.iter().any(|v| !v.is_finite()) {
                        return Err(XaiError::ModelFault {
                            context: "DiCE local search produced a non-finite candidate".into(),
                        });
                    }
                    Json::obj(vec![("cf", Json::nums(&cf)), ("loss", Json::Num(loss))])
                }
            });
        }
        Ok(chunks_json(out))
    }

    fn merge_chunks(
        &self,
        model: &dyn ModelOracle,
        req: &ExplainRequest<'_>,
        partials: Vec<Json>,
    ) -> XaiResult<Explanation> {
        const WHAT: &str = "DiCE merge";
        let instance = req.need_instance("DiCE")?;
        validate::finite_slice("DiCE instance", instance)?;
        let grid = self.draw_grid(req)?;
        let flat = flatten_chunks(&partials, WHAT)?;
        if flat.len() != grid.n_chunks() {
            return Err(wire_error(format!(
                "{WHAT}: got {} pool candidates for a {}-candidate pool",
                flat.len(),
                grid.n_chunks()
            )));
        }
        let d = instance.len();
        let candidates = flat
            .into_iter()
            .enumerate()
            .map(|(i, c)| match c {
                Json::Null => Ok(None),
                _ => {
                    let cf = nums_field(c, "cf", WHAT)?;
                    if cf.len() != d {
                        return Err(wire_error(format!(
                            "{WHAT}: candidate {i} has {} features, want {d}",
                            cf.len()
                        )));
                    }
                    Ok(Some((cf, num_field(c, "loss", WHAT)?)))
                }
            })
            .collect::<XaiResult<Vec<_>>>()?;
        let explainer = DiceExplainer::fit(req.data);
        let f = |x: &[f64]| model.predict(x);
        let original_output = catch_model("DiCE original prediction", || f(instance))?;
        let chosen = explainer.select_diverse(&candidates, self.config);
        let results = catch_model("DiCE counterfactual certification", || {
            chosen
                .into_iter()
                .map(|cf| {
                    let cf_output = f(&cf);
                    Counterfactual::new(
                        instance.to_vec(),
                        cf.clone(),
                        original_output,
                        cf_output,
                        explainer.distance(instance, &cf),
                    )
                })
                .collect::<Vec<_>>()
        })?;
        let cfs = crate::dice::certify_set(results, "pooled DiCE search", self.config)?;
        Ok(Explanation::Counterfactuals(cfs))
    }

    fn config_json(&self) -> Json {
        Json::obj(vec![
            ("k", Json::Num(self.config.k as f64)),
            ("proximity_weight", Json::Num(self.config.proximity_weight)),
            ("diversity_weight", Json::Num(self.config.diversity_weight)),
            ("sparsity_weight", Json::Num(self.config.sparsity_weight)),
            ("iterations", Json::Num(self.config.iterations as f64)),
            ("restarts", Json::Num(self.config.restarts as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xai_core::taxonomy::{Access, Scope};
    use xai_core::{ExplanationForm, RunConfig};
    use xai_data::synth::german_credit;
    use xai_models::{LogisticConfig, LogisticRegression};

    fn rejected_row(data: &xai_data::Dataset, model: &LogisticRegression) -> Vec<f64> {
        use xai_models::Classifier;
        (0..data.n_rows())
            .map(|i| data.row(i))
            .find(|r| model.proba_one(r) < 0.5)
            .expect("some rejected applicant exists")
            .to_vec()
    }

    #[test]
    fn cards_come_from_the_catalogue() {
        assert_eq!(WachterMethod::default().card().access, Access::ModelSpecific);
        assert_eq!(GecoMethod::default().card().scope, Scope::Local);
        assert_eq!(DiceMethod::default().card().form, ExplanationForm::Counterfactual);
    }

    #[test]
    fn all_three_searches_flip_a_rejection() {
        let data = german_credit(150, 31);
        let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
        let row = rejected_row(&data, &model);
        let req = ExplainRequest::new(&data).instance(&row).plan(RunConfig::seeded(5));

        for method in [
            &WachterMethod::default() as &dyn Explainer,
            &GecoMethod::default(),
            &DiceMethod::default(),
        ] {
            let e = method.explain(&model, &req).unwrap();
            let cfs = e.as_counterfactuals().unwrap();
            assert!(!cfs.is_empty(), "{} found no counterfactual", method.card().name);
            for cf in cfs {
                assert!(
                    cf.counterfactual_output >= 0.5,
                    "{} returned a non-flipping counterfactual",
                    method.card().name
                );
            }
        }
    }

    #[test]
    fn wachter_requires_a_gradient_surface() {
        let data = german_credit(60, 32);
        let gbdt = xai_models::Gbdt::fit(data.x(), data.y(), xai_models::GbdtConfig::default());
        let row = data.row(0).to_vec();
        let req = ExplainRequest::new(&data).instance(&row);
        assert!(matches!(
            WachterMethod::default().explain(&gbdt, &req),
            Err(XaiError::Unsupported { .. })
        ));
    }
}
