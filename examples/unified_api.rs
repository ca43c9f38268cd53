//! The unified explainer layer, end to end: one `ExplainRequest` + one
//! `RunConfig` drive every method, and `Registry::resolve` walks the
//! tutorial's taxonomy dimensions returning *live* explainers.
//!
//! ```sh
//! cargo run --release --example unified_api
//! ```

use xai::core::taxonomy::{Access, Scope};
use xai::prelude::*;

fn show(explanation: &Explanation, names: &[String]) -> String {
    match explanation {
        Explanation::Attribution(a) => {
            let top = a.top_k(3).into_iter();
            let lead =
                top.map(|(n, v)| format!("{n} {v:+.3}")).collect::<Vec<_>>().join(", ");
            format!("top features: {lead}")
        }
        Explanation::Curve(c) => format!(
            "{}-point curve over '{}', range [{:.3}, {:.3}]",
            c.grid.len(),
            &names[c.feature],
            c.values.iter().cloned().fold(f64::INFINITY, f64::min),
            c.values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        ),
        Explanation::Rules(rules) => format!("{} rule(s), first: {}", rules.len(), rules[0]),
        Explanation::Counterfactuals(cfs) => format!(
            "{} counterfactual(s), first flips to {:.3} changing {} feature(s)",
            cfs.len(),
            cfs[0].counterfactual_output,
            cfs[0].sparsity()
        ),
        Explanation::DataValuation(v) => {
            let top = v.ranking_desc();
            format!("most valuable training rows: {:?}", &top[..3.min(top.len())])
        }
    }
}

fn run_axis(
    title: &str,
    registry: &Registry,
    scope: Scope,
    access: Access,
    model: &dyn ModelOracle,
    req: &ExplainRequest<'_>,
    names: &[String],
) {
    println!("— {title}: resolve({scope:?}, {access:?}) —");
    for method in registry.resolve(scope, access) {
        let card = method.card();
        match method.explain(model, req) {
            Ok(explanation) => {
                println!("  {:<30} {}", card.name, show(&explanation, names));
            }
            Err(e) => println!("  {:<30} unavailable here: {e}", card.name),
        }
    }
    println!();
}

fn main() {
    // One dataset, one model, one request, one plan.
    let data = xai::data::synth::german_credit(300, 42);
    let model = LogisticRegression::fit(data.x(), data.y(), LogisticConfig::default());
    let names = data.schema().names().iter().map(|s| s.to_string()).collect::<Vec<_>>();

    // Pick a rejected applicant so the counterfactual searches have a
    // decision to flip.
    let applicant = {
        use xai_models::Classifier;
        (0..data.n_rows())
            .map(|i| data.row(i))
            .find(|r| model.proba_one(r) < 0.5)
            .expect("a rejected applicant exists")
            .to_vec()
    };
    // One execution plan serves every method: the worker count picks the
    // sequential or chunk-grid core, the batched switch the model surface.
    let plan = RunConfig::seeded(7).with_workers(2).with_batched(true);
    let utility = xai::datavalue::KnnUtility::new(&data, &data, 5);
    let req = ExplainRequest::new(&data)
        .instance(&applicant)
        .feature(1)
        .utility(&utility)
        .plan(plan);

    let registry = runnable_registry();
    println!(
        "{} taxonomy cards, {} runnable through Explainer::explain\n",
        registry.cards().len(),
        registry.runnable_names().len()
    );

    // Dimension 1 — scope: explain ONE decision.
    run_axis(
        "Local, any black box",
        &registry,
        Scope::Local,
        Access::ModelAgnostic,
        &model,
        &req,
        &names,
    );
    // Dimension 2 — access: methods that need model internals (the
    // logistic model serves gradients; TreeSHAP politely declines).
    run_axis(
        "Local, model-specific",
        &registry,
        Scope::Local,
        Access::ModelSpecific,
        &model,
        &req,
        &names,
    );
    // Dimension 3 — global and training-data views of the same model.
    run_axis(
        "Global behaviour",
        &registry,
        Scope::Global,
        Access::ModelAgnostic,
        &model,
        &req,
        &names,
    );
    run_axis(
        "Training-data responsibility",
        &registry,
        Scope::TrainingData,
        Access::ModelAgnostic,
        &model,
        &req,
        &names,
    );
    run_axis(
        "Training-data, model-specific",
        &registry,
        Scope::TrainingData,
        Access::ModelSpecific,
        &model,
        &req,
        &names,
    );

    // The same trait object honours the degradation policy and budget
    // knobs of the plan — here a strict, budgeted permutation Shapley.
    let strict = RunConfig::seeded(7).with_budget(SampleBudget::with_max_evals(200)).strict();
    let req = ExplainRequest::new(&data).instance(&applicant).plan(strict);
    let sampled = PermutationShapleyMethod::default().explain(&model, &req).unwrap();
    println!(
        "— budgeted permutation Shapley (≤200 evaluations, strict) —\n  {}",
        show(&sampled, &names)
    );
}
