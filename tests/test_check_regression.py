"""Tests for the benchmark-regression gate (benchmarks/check_regression.py)."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = (
    pathlib.Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
)


def load_module():
    spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = load_module()


def write_run(path, means):
    payload = {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean}} for name, mean in means.items()
        ]
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


BASE = {"bench_a": 10.0, "bench_b": 5.0, "bench_c": 1.0}


def run_gate(tmp_path, current_means, **kwargs):
    baseline = write_run(tmp_path / "baseline.json", BASE)
    current = write_run(tmp_path / "current.json", current_means)
    argv = [str(current), "--baseline", str(baseline), "--key", "bench_a",
            "--key", "bench_b"]
    for flag, value in kwargs.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    return checker.main(argv)


def test_identical_run_passes(tmp_path):
    assert run_gate(tmp_path, dict(BASE)) == 0


def test_uniformly_slower_machine_passes(tmp_path):
    slower = {name: mean * 3.0 for name, mean in BASE.items()}
    assert run_gate(tmp_path, slower) == 0


def test_single_benchmark_regression_fails(tmp_path):
    regressed = dict(BASE, bench_a=BASE["bench_a"] * 1.4)
    assert run_gate(tmp_path, regressed) == 1


def test_regression_under_threshold_passes(tmp_path):
    regressed = dict(BASE, bench_b=BASE["bench_b"] * 1.15)
    assert run_gate(tmp_path, regressed) == 0


def test_non_key_benchmark_regression_is_ignored(tmp_path):
    regressed = dict(BASE, bench_c=BASE["bench_c"] * 3.0)
    # bench_c regressed badly, but only a/b are gated; a/b ratios *shrink*
    assert run_gate(tmp_path, regressed) == 0


def test_tiny_benchmarks_are_below_the_noise_floor(tmp_path):
    means = dict(BASE, bench_b=0.001)
    baseline = write_run(tmp_path / "baseline.json", means)
    current = write_run(
        tmp_path / "current.json", dict(means, bench_b=0.002)
    )
    assert checker.main(
        [str(current), "--baseline", str(baseline), "--key", "bench_b"]
    ) == 0  # doubled, but under --min-share


def test_missing_key_benchmark_errors(tmp_path):
    baseline = write_run(tmp_path / "baseline.json", BASE)
    current = write_run(tmp_path / "current.json", BASE)
    assert checker.main(
        [str(current), "--baseline", str(baseline), "--key", "bench_zz"]
    ) == 1


def test_no_key_benchmarks_present_errors(tmp_path):
    # common benchmarks exist, but none of the default keys are among them
    baseline = write_run(tmp_path / "baseline.json", BASE)
    current = write_run(tmp_path / "current.json", BASE)
    assert checker.main([str(current), "--baseline", str(baseline)]) == 1


def test_no_common_benchmarks_errors(tmp_path):
    baseline = write_run(tmp_path / "baseline.json", {"x": 1.0})
    current = write_run(tmp_path / "current.json", {"y": 1.0})
    assert checker.main([str(current), "--baseline", str(baseline)]) == 1


def test_calibrated_ratio_isolates_the_regressing_benchmark():
    means = dict(BASE)
    common = sorted(means)
    before = checker.calibrated_ratios(means, common, ["bench_a"])["bench_a"]
    means["bench_a"] *= 1.4
    after = checker.calibrated_ratios(means, common, ["bench_a"])["bench_a"]
    assert after / before == pytest.approx(1.4)


def test_key_speedup_does_not_contaminate_other_keys(tmp_path):
    """Optimizing one key benchmark 10x must not flag the others."""
    sped_up = dict(BASE, bench_a=BASE["bench_a"] / 10.0)
    assert run_gate(tmp_path, sped_up) == 0  # bench_b's ratio is untouched


def test_all_keys_falls_back_to_leave_one_out():
    means = dict(BASE)
    common = sorted(means)
    ratios = checker.calibrated_ratios(means, common, common)
    assert ratios["bench_a"] == pytest.approx(10.0 / 6.0)


def test_trim_baseline_roundtrip(tmp_path):
    full = {
        "machine_info": {"python_version": "3.11", "cpu": "secret"},
        "benchmarks": [
            {"name": "a", "stats": {"mean": 1.5, "stddev": 0.1}, "extra": {}},
        ],
    }
    src = tmp_path / "full.json"
    src.write_text(json.dumps(full), encoding="utf-8")
    out = tmp_path / "trimmed.json"
    assert checker.main([str(src), "--trim-baseline", str(out)]) == 0
    trimmed = json.loads(out.read_text(encoding="utf-8"))
    assert trimmed["benchmarks"] == [{"name": "a", "stats": {"mean": 1.5}}]
    assert checker.load_means(out) == {"a": 1.5}


def test_baseline_only_benchmark_warns_but_gates_the_rest(tmp_path, capsys):
    """A renamed/removed benchmark must not crash the gate: it warns and
    the remaining keys are still judged."""
    baseline = write_run(
        tmp_path / "baseline.json", dict(BASE, bench_gone=2.0)
    )
    current = write_run(tmp_path / "current.json", dict(BASE))
    code = checker.main(
        [str(current), "--baseline", str(baseline), "--key", "bench_a"]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "bench_gone" in err and "warning" in err


def test_baseline_only_benchmark_still_fails_genuine_regressions(tmp_path, capsys):
    baseline = write_run(
        tmp_path / "baseline.json", dict(BASE, bench_gone=2.0)
    )
    current = write_run(
        tmp_path / "current.json", dict(BASE, bench_a=BASE["bench_a"] * 1.6)
    )
    code = checker.main(
        [str(current), "--baseline", str(baseline), "--key", "bench_a"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "bench_gone" in err  # warned about the orphan...
    assert "FAIL" in err  # ...and still failed the real regression


def test_new_benchmark_warns(tmp_path, capsys):
    baseline = write_run(tmp_path / "baseline.json", dict(BASE))
    current = write_run(tmp_path / "current.json", dict(BASE, bench_new=3.0))
    assert checker.main(
        [str(current), "--baseline", str(baseline), "--key", "bench_a"]
    ) == 0
    assert "bench_new" in capsys.readouterr().err


def test_missing_default_key_warns_and_skips(tmp_path, capsys):
    """A default key that vanished is a warning; the present ones gate."""
    means = {name: 5.0 for name in checker.DEFAULT_KEYS[:-1]}
    means["calib"] = 10.0
    baseline = write_run(
        tmp_path / "baseline.json", dict(means, **{checker.DEFAULT_KEYS[-1]: 5.0})
    )
    current = write_run(tmp_path / "current.json", means)
    assert checker.main([str(current), "--baseline", str(baseline)]) == 0
    err = capsys.readouterr().err
    assert checker.DEFAULT_KEYS[-1] in err and "skipped" in err


def test_every_default_key_exists_in_committed_baseline():
    """The gate is only as strong as the committed baseline: a DEFAULT_KEY
    with no baseline row silently never gates, so adding a key without
    re-committing ``benchmarks/baseline.json`` must fail loudly here."""
    baseline_path = SCRIPT.parent / "baseline.json"
    committed = checker.load_means(baseline_path)
    missing = [key for key in checker.DEFAULT_KEYS if key not in committed]
    assert not missing, (
        f"DEFAULT_KEYS absent from {baseline_path.name}: {missing}; "
        "run the benchmark suite and re-commit the baseline"
    )


def test_vectorized_sampler_bench_is_a_default_key():
    """The sampler hot path's throughput is CI-gated, not best-effort."""
    assert "test_bench_sampler_vectorized" in checker.DEFAULT_KEYS


def test_server_load_bench_is_a_default_key():
    """The network serving tier's load benchmark is CI-gated: served
    throughput under concurrent sessions cannot silently regress."""
    assert "test_bench_server_load" in checker.DEFAULT_KEYS


def test_cache_pressure_bench_is_a_default_key():
    """The multi-tenant cache-pressure benchmark is CI-gated: the
    bounded memory tier and its store fall-through cannot silently
    regress."""
    assert "test_bench_cache_pressure" in checker.DEFAULT_KEYS
