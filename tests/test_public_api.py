import ast
import dataclasses
import inspect

import riskenv
import riskenv.bench
import riskenv.cli


def test_every_exported_name_resolves():
    assert len(set(riskenv.__all__)) == len(riskenv.__all__)
    missing = [name for name in riskenv.__all__ if not hasattr(riskenv, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from riskenv import *", namespace)  # noqa: S102 - the point of the test
    assert set(riskenv.__all__) <= set(namespace)


def test_test_only_helpers_not_exported():
    # The per-pair helpers and the one-level contour live with the tests; the
    # violation flag comes from the one analysis path; a distribution holds
    # its contours as masses and envelopes, with no per-contour record.
    for name in ("pairwise_envelope", "worst_of", "safety_violated", "sample_contour",
                 "ContourEnvelope"):
        assert name not in riskenv.__all__
        assert not hasattr(riskenv, name)
    assert not hasattr(riskenv.uncertainty, "sample_contour")
    assert not hasattr(riskenv.prob_envelope, "ContourEnvelope")


def test_one_contour_sampler():
    # prob_envelope re-exports the sampler of uncertainty; it defines none.
    assert riskenv.prob_envelope.contour_samples is riskenv.uncertainty.contour_samples
    assert riskenv.prob_envelope.EXACT_SAMPLES is riskenv.uncertainty.EXACT_SAMPLES


def test_one_decomposition_one_noise_transform_one_analysis_entry():
    # eigendecompose runs on LAPACK, draw_noise is the only Gaussian
    # transform (bench calls it by name), and analyze_step is the only
    # stacked analysis.
    assert not hasattr(riskenv.uncertainty, "_jacobi_rotate")
    assert riskenv.bench.draw_noise is riskenv.uncertainty.draw_noise
    assert not hasattr(riskenv.prob_envelope, "analyze_agents")
    assert "analyze_agents" not in riskenv.__all__


def test_one_episode_loop():
    # bench.run_episode holds the step loop and the latch; sim is the world
    # model, and a Policy is only the analysis.
    assert not hasattr(riskenv.sim, "simulate")
    assert not hasattr(riskenv.bench.Policy, "_decide")


def test_one_place_applies_beta():
    # A Policy is the analysis alone; run_episode applies the risk level that
    # acting_beta gives, and sweep groups cells by it, with no twin table.
    assert not hasattr(riskenv.bench, "TWINS")
    params = inspect.signature(riskenv.bench.Policy).parameters
    assert list(params) == ["kind", "cfg", "spec", "policy_rng"]
    assert "beta" in inspect.signature(riskenv.bench.run_episode).parameters


def test_one_decision_rule():
    # EnvelopeRestriction and Simplex run as their probabilistic twins at
    # zero covariance and beta 0: every policy switches through
    # should_switch and restricts through risk_bounded_envelope.
    assert not hasattr(riskenv.prob_envelope, "worst_case")
    assert "worst_case" not in riskenv.__all__


def test_one_module_turns_agents_into_kernel_rows():
    # prob_envelope stacks the rows of every policy's analysis: bench passes
    # (state, samples) pairs to analyze_step or mean_violations and holds no
    # row-level code.
    for name in ("BroadPhase", "violation_batch", "pair_analysis_batch", "stacked_states"):
        assert not hasattr(riskenv.bench, name)
    assert not hasattr(riskenv.bench.Policy, "_mean_violations")
    assert riskenv.bench.mean_violations is riskenv.prob_envelope.mean_violations


def _imported_modules(module) -> set:
    """Every module that ``module``'s source imports from, relative imports
    resolved against the riskenv package."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("riskenv" if node.level else "", node.module)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_core_modules_do_not_import_config():
    # config is the JSON layer over the core modules: the input contract
    # (ConfigError, integral, real, check_bounds, check_beta) lives below it.
    assert "riskenv.rss.AgentState" in _imported_modules(riskenv.prob_envelope)
    for module in (riskenv.rss, riskenv.uncertainty, riskenv.sim, riskenv.prob_envelope):
        imported = _imported_modules(module)
        assert [name for name in imported if name.split(".")[:2] == ["riskenv", "config"]] \
            == [], module.__name__


def test_one_source_per_episode_input():
    # The ego is known, not observed: observe returns the observed agents and
    # the controllers and the policy take the ego from the world.  The road
    # is a parameter, elapsed time is world.time, and a sweep runs the
    # policies and betas of the RunConfig that checked them.
    assert not hasattr(riskenv.sim, "ObservedWorld")
    assert [f.name for f in dataclasses.fields(riskenv.sim.WorldState)] == [
        "time", "ego", "others", "other_lanes"]
    assert list(inspect.signature(riskenv.sim.classify_outcome).parameters) == [
        "world", "road", "horizon", "rss"]
    assert list(inspect.signature(riskenv.bench.sweep).parameters) == [
        "scenarios", "cases", "cfg", "pool"]
    for module in (riskenv.rss, riskenv.uncertainty, riskenv.sim, riskenv.prob_envelope,
                   riskenv.config, riskenv.bench, riskenv.cli):
        source = inspect.getsource(module)
        assert "obs.ego" not in source and "world.road" not in source, module.__name__
