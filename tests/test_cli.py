import concurrent.futures
import ctypes
import functools
import hashlib
import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

import optbench
import optbench.experiments as experiments
from optbench.cli import (
    COMMANDS,
    PRESETS,
    UsageError,
    defaults,
    emit_csv,
    main,
    resolve_params,
)
from optbench.experiments import sweep_angle
from optbench.linalg import OPENBLAS_THREAD_CALLS, set_blas_threads
from optbench.optim import Optimizer

NO_OPENBLAS = "no OpenBLAS is loaded: numpy's BLAS is another library, and runs keep its threads"


def fresh_python(*args, **environ):
    """Run a new interpreter that imports optbench from this checkout, with
    the extra environment variables given."""
    src = os.path.dirname(os.path.dirname(optbench.__file__))
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def read(path):
    return path.read_bytes()


@pytest.fixture
def two_blas_threads():
    """This process's BLAS on two threads for the test, its count restored after."""
    previous = set_blas_threads(2)
    if previous is None:
        pytest.skip(NO_OPENBLAS)
    yield
    set_blas_threads(previous)


class TestBlasThreads:
    """The --workers processes are the only parallelism: a run sets this
    process's BLAS, and each pool worker's, to one thread, and gives the
    caller its count back.  A count is read by setting the policy's 1, as
    set_blas_threads returns the one it replaces."""

    def test_a_run_uses_one_blas_thread_and_restores_the_count(self, tmp_path, capsys,
                                                               monkeypatch, two_blas_threads):
        seen = []

        def runner(master_seed, *, workers):
            seen.append(set_blas_threads(1))
            seen.append(experiments._map_cells(set_blas_threads, [1, 1], workers))
            return []

        monkeypatch.setattr(experiments, "sweep_heatmap", runner)
        assert main(["heatmap", "--seed", "0", "--out", str(tmp_path), "--workers", "2"]) == 0
        assert seen == [1, [1, 1]]
        assert set_blas_threads(2) == 2

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_workers_run_one_blas_thread(self, monkeypatch, two_blas_threads, method):
        # Called outside a run, so a forked worker would keep this process's
        # two threads, and a spawned one would start at the library default.
        pool = functools.partial(concurrent.futures.ProcessPoolExecutor,
                                 mp_context=multiprocessing.get_context(method))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        assert experiments._map_cells(set_blas_threads, [1, 1], 2) == [1, 1]
        assert set_blas_threads(2) == 2


def maps_thread_count():
    """The thread-count getter of the OpenBLAS that /proc/self/maps lists
    under numpy.libs, found by name as a scan of the maps would find it;
    skips where there is no /proc or no such library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "numpy.libs" in line}
    except OSError:
        pytest.skip("no /proc/self/maps to list the mapped libraries")
    if len(libs) != 1:
        pytest.skip("no OpenBLAS under numpy.libs: numpy's BLAS came from elsewhere")
    handle = ctypes.CDLL(libs.pop())
    return next(getattr(handle, get) for set_, get in OPENBLAS_THREAD_CALLS
                if hasattr(handle, set_))


class TestBlasLookup:
    """set_blas_threads finds numpy's OpenBLAS through numpy itself, not by
    reading the process's memory map, and it is that library it sets."""

    def test_found_without_reading_the_memory_map(self, two_blas_threads):
        # The fixture skips where this process has no OpenBLAS to find.
        code = ("import builtins\n"
                "real_open = builtins.open\n"
                "def guarded(file, *args, **kwargs):\n"
                "    if str(file) == '/proc/self/maps':\n"
                "        raise OSError('maps unreadable')\n"
                "    return real_open(file, *args, **kwargs)\n"
                "builtins.open = guarded\n"
                "import optbench.linalg as linalg\n"
                "print(linalg.set_blas_threads(1), linalg.set_blas_threads(1))\n")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        previous, now = proc.stdout.split()
        assert previous.isdigit() and now == "1"

    def test_sets_the_openblas_mapped_under_numpy_libs(self, two_blas_threads):
        get_threads = maps_thread_count()
        assert get_threads() == 2
        assert set_blas_threads(1) == 2
        assert get_threads() == 1


class TestResolveParams:
    def test_desk_preset_is_defaults(self):
        params, applied = resolve_params("heatmap", "desk", {}, [])
        assert params == defaults("heatmap")
        assert applied == {}

    def test_paper_fig3_grid(self):
        params, _ = resolve_params("heatmap", "paper-fig3", {}, [])
        assert params["lambda_max_values"] == (1.0, 1e2, 1e4, 1e6, 1e8)
        assert params["cond_values"] == (1.0, 1e2, 1e4, 1e6, 1e8)
        assert params["seeds"] == 30
        assert params["d"] == 100
        assert params["n"] == 300
        assert params["steps"] == 3000

    def test_overrides_beat_preset(self):
        params, applied = resolve_params("heatmap", "paper-fig3", {}, ["seeds=3"])
        assert params["seeds"] == 3
        assert applied == {"seeds": 3}

    def test_file_params_beaten_by_overrides(self):
        params, _ = resolve_params("align-mc", None, {"samples_per_dim": 50},
                                   ["samples_per_dim=70"])
        assert params["samples_per_dim"] == 70

    def test_tuple_override_parsing(self):
        params, _ = resolve_params("align-mc", None, {}, ["dims=2,5"])
        assert params["dims"] == (2, 5)

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError):
            resolve_params("heatmap", None, {}, ["bogus=1"])
        with pytest.raises(UsageError):
            resolve_params("heatmap", None, {"bogus": 1}, [])

    def test_unknown_preset_rejected(self):
        with pytest.raises(UsageError):
            resolve_params("heatmap", "paper-fig9", {}, [])
        with pytest.raises(UsageError):
            resolve_params("angle", "paper-fig3", {}, [])

    def test_presets_cover_their_subcommands(self):
        for name, bundle in PRESETS.items():
            for sub, values in bundle.items():
                assert sub in COMMANDS, (name, sub)
                keys = defaults(sub)
                for key, value in values.items():
                    assert key in keys, (name, sub, key)
                    assert type(value) is type(keys[key]), (name, sub, key)


class TestEmitCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([], ["a", "b"], str(path))
        assert read(path) == b"a,b\n"

    def test_field_order_and_types(self, tmp_path):
        path = tmp_path / "out.csv"
        digest = emit_csv([{"b": 2, "a": 1.5, "c": True}], ["a", "b", "c"], str(path))
        content = read(path)
        assert content == b"a,b,c\n1.5,2,true\n"
        assert digest == hashlib.sha256(content).hexdigest()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([{"x": 1}, {"x": 2}], ["x"], str(path))
        assert b"\r" not in read(path)


class TestMain:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert main(["bogus"]) == 2

    def test_missing_seed(self, tmp_path, capsys):
        assert main(["align-mc", "--out", str(tmp_path)]) == 2

    def test_missing_out(self, capsys):
        assert main(["align-mc", "--seed", "1"]) == 2

    def test_negative_seed(self, tmp_path, capsys):
        assert main(["align-mc", "--seed", "-4", "--out", str(tmp_path)]) == 2

    def test_unknown_override_key(self, tmp_path, capsys):
        code = main(["align-mc", "--seed", "1", "--out", str(tmp_path),
                     "--set", "nope=3"])
        assert code == 2

    @pytest.mark.parametrize("override", ["steps=1e3", "eta=fast", "eta=nan"])
    def test_bad_numeric_override_is_usage_error(self, tmp_path, capsys, override):
        code = main(["trajectory", "--seed", "1", "--out", str(tmp_path),
                     "--set", "steps=5", "--set", override])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = fresh_python("-m", "optbench.cli")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: optbench")

    def test_import_loads_no_scipy(self):
        # QR and eigh go through numpy.linalg, scipy.special is imported only
        # where align-mc needs it, and scipy.stats is a test-only oracle.
        # numpy.random is loaded at import, so a timed run does not pay for it.
        code = ("import sys, optbench, optbench.cli; print(sorted(m for m in sys.modules "
                "if m.startswith('scipy')), 'numpy.random' in sys.modules)")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] True"

    def test_import_loads_no_process_pool(self):
        # Only --workers > 1 starts a ProcessPoolExecutor, so _map_cells imports
        # it there, and no other call pays for loading multiprocessing.
        code = ("import sys, optbench, optbench.cli; print([m for m in ('multiprocessing', "
                "'concurrent.futures.process') if m in sys.modules])")
        proc = fresh_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_the_blas_thread_count(self):
        # Only a run sets one BLAS thread; importing the package sets nothing.
        code = ("import optbench, optbench.cli, optbench.linalg as linalg; "
                "print(linalg.set_blas_threads(1))")
        proc = fresh_python("-c", code, OPENBLAS_NUM_THREADS="2")
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.strip() == "None":
            pytest.skip(NO_OPENBLAS)
        assert proc.stdout.strip() == "2"

    @pytest.mark.parametrize("cores,count,workers", [
        ({0}, 64, 1), ({0, 5, 7}, 64, 3), (None, 5, 5), (None, None, 1)])
    def test_default_workers_are_the_usable_cores(self, tmp_path, capsys, monkeypatch, cores,
                                                  count, workers):
        # The CPU count only where the platform cannot tell the cores this
        # process may run on.  One cell: a single group, so no pool starts.
        if cores is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        argv = ["heatmap", "--seed", "1", "--out", str(tmp_path)]
        for item in ["lambda_max_values=1", "cond_values=1", "seeds=1", "steps=5", "d=2", "n=4"]:
            argv += ["--set", item]
        assert main(argv) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["workers"] == workers

    @pytest.mark.parametrize("sub,overrides,recorded", [
        ("stability", ["n=6", "d=3", "swaps=1", "seeds=1", "degenerate_n=3",
                       "degenerate_d=4", "degenerate_rank=2"], 1),
        ("regret", ["seeds=1", "t_values=3,5", "d=2"], 1),
        ("heatmap", ["lambda_max_values=1", "cond_values=1", "seeds=1", "steps=5", "d=2",
                     "n=4"], 3),
    ])
    def test_manifest_records_the_workers_used(self, tmp_path, capsys, sub, overrides,
                                               recorded):
        # Runners without a workers parameter run on one worker, whatever --workers says.
        argv = [sub, "--seed", "1", "--out", str(tmp_path), "--workers", "3"]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["workers"] == recorded

    def test_align_mc_run_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["align-mc", "--preset", "desk", "--seed", "7", "--out", str(out),
                     "--set", "dims=2,10", "--set", "samples_per_dim=500",
                     "--workers", "1"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["preset"] == "desk"
        assert manifest["master_seed"] == 7
        assert manifest["overrides"] == {"dims": [2, 10], "samples_per_dim": 500}
        csv_bytes = read(out / "align-mc.csv")
        assert manifest["files"]["align-mc.csv"] == hashlib.sha256(csv_bytes).hexdigest()
        header = csv_bytes.splitlines()[0].decode()
        assert header == ("d,rows_sampled,median_angle_deg,frac_below_threshold,"
                          "exact_frac_below_threshold")

    def test_heatmap_schema_and_diverged_cell(self, tmp_path, capsys):
        out = tmp_path / "hm"
        code = main(["heatmap", "--seed", "3", "--out", str(out), "--workers", "1",
                     "--set", "lambda_max_values=1e6", "--set", "cond_values=1",
                     "--set", "seeds=1", "--set", "steps=300", "--set", "d=4",
                     "--set", "n=40"])
        assert code == 0
        lines = read(out / "heatmap.csv").decode().splitlines()
        assert lines[0] == "optimizer,lambda_max,cond,seed,log10_loss"
        fixed = [ln for ln in lines[1:] if ln.startswith("sgd_fixed,")]
        assert len(fixed) == 1
        assert float(fixed[0].split(",")[-1]) == 50.0

    def test_config_file_supplies_values(self, tmp_path, capsys):
        out = tmp_path / "cfg_out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "master_seed": 11,
            "out_dir": str(out),
            "params": {"dims": [2], "samples_per_dim": 300},
        }))
        assert main(["align-mc", "--config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 11
        assert manifest["config"]["dims"] == [2]

    def test_malformed_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{nope")
        assert main(["align-mc", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_theorem_range_success_csv(self, tmp_path, capsys):
        out = tmp_path / "thm"
        code = main(["theorem-range", "--seed", "5", "--out", str(out),
                     "--set", "d=4", "--set", "cond=100", "--set", "steps=20000",
                     "--set", "eta_multipliers=0.01,1.0,100.0"])
        assert code == 0
        lines = read(out / "theorem-range.csv").decode().splitlines()
        assert lines[0].startswith("eta_multiplier,eta,converged")
        assert len(lines) == 4
        assert all(",true," in ln or ln.split(",")[2] == "true" for ln in lines[1:])

    def test_distance_bound_self_test_exit_1(self, tmp_path, capsys):
        out = tmp_path / "db"
        code = main(["distance-bound", "--seed", "5", "--out", str(out),
                     "--set", "d_values=2", "--set", "cond_values=10",
                     "--set", "eta_values=0.01", "--set", "steps=3000",
                     "--set", "bound_scale=1e-12"])
        assert code == 1
        assert (out / "distance-bound.csv").exists()  # report still written

    def test_trajectory_run(self, tmp_path, capsys):
        out = tmp_path / "traj"
        code = main(["trajectory", "--seed", "2", "--out", str(out),
                     "--set", "steps=50", "--set", "d=3", "--set", "n=12"])
        assert code == 0
        lines = read(out / "trajectory.csv").decode().splitlines()
        assert lines[0] == "t,loss,eta_t,grad_norm"
        assert len(lines) == 51

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args_template = ["align-mc", "--seed", "9", "--set", "dims=2,10",
                         "--set", "samples_per_dim=400"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(args_template + ["--out", str(out)]) == 0
            outs.append(read(out / "align-mc.csv"))
        assert outs[0] == outs[1]

    def test_heatmap_bytes_independent_of_workers(self, tmp_path, capsys):
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["heatmap", "--seed", "4", "--out", str(out), "--workers", workers,
                         "--set", "lambda_max_values=1,1e6", "--set", "cond_values=1,1e4",
                         "--set", "seeds=1", "--set", "steps=30", "--set", "d=4",
                         "--set", "n=40"]) == 0
            outs.append(read(out / "heatmap.csv"))
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 1 + 4 * 2 * 2

    @pytest.mark.parametrize("sub,overrides,rows", [
        # about 3 kB and 12 kB a problem
        ("heatmap", ["lambda_max_values=1,1e2,1e4,1e6", "cond_values=1,1e2,1e4,1e6", "seeds=3",
                     "steps=20", "d=4", "n=40"], 4 * 48),
        ("angle", ["angles=0,15,30,45", "seeds=5", "steps=20"], 3 * 20),
    ])
    def test_sweep_bytes_independent_of_groups_and_workers(self, tmp_path, capsys, monkeypatch,
                                                           sub, overrides, rows):
        outs = []
        # one group, two, and groups of a few problems each
        for workers, budget in (("1", experiments.GROUP_BYTES), ("2", experiments.GROUP_BYTES),
                                ("1", 50_000), ("2", 20_000)):
            monkeypatch.setattr(experiments, "GROUP_BYTES", budget)
            out = tmp_path / f"w{workers}-b{budget}"
            argv = [sub, "--seed", "3", "--out", str(out), "--workers", workers]
            assert main(argv + [a for o in overrides for a in ("--set", o)]) == 0
            outs.append(read(out / f"{sub}.csv"))
        assert all(o == outs[0] for o in outs)
        assert len(outs[0].splitlines()) == 1 + rows

    @pytest.mark.parametrize("sub,params", [
        ("trajectory", {"steps": "5"}),
        ("align-mc", {"dims": 5}),
    ])
    def test_ill_typed_config_value_is_usage_error(self, tmp_path, capsys, sub, params):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"params": params}))
        code = main([sub, "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("sub,override", [
        ("trajectory", "lambda_max=nan"),
        ("trajectory", "cond=nan"),
        ("heatmap", "cond_values=nan"),
    ])
    def test_non_finite_spectrum_is_usage_error(self, tmp_path, capsys, sub, override):
        code = main([sub, "--seed", "1", "--out", str(tmp_path), "--workers", "1",
                     "--set", "steps=5", "--set", "d=3", "--set", "n=12",
                     "--set", override])
        assert code == 2
        assert not (tmp_path / f"{sub}.csv").exists()

    @pytest.mark.parametrize("sub,override", [
        ("angle", "seeds=0"),
        ("regret", "seeds=0"),
        ("stability", "seeds=0"),
        ("stability", "swaps=0"),
        ("ridge-path", "seeds=0"),
        ("ridge-path", "train_n=0"),
        ("align-mc", "samples_per_dim=0"),
    ])
    def test_zero_count_is_usage_error(self, tmp_path, capsys, sub, override):
        code = main([sub, "--seed", "1", "--out", str(tmp_path), "--workers", "1",
                     "--set", override])
        assert code == 2
        assert not (tmp_path / f"{sub}.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("override,message", [
        ("t_values=0,100", "t_values must all be >= 1"),
        ("t_values=100,-5", "t_values must all be >= 1"),
        ("d=0", "d must be >= 1"),
    ])
    def test_regret_bad_size_is_usage_error(self, tmp_path, capsys, override, message):
        code = main(["regret", "--seed", "1", "--out", str(tmp_path), "--set", override])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "regret.csv").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("override,message", [
        ("g_bound=nan", "g_bound must be positive, with 2 * g_bound finite"),
        ("g_bound=inf", "g_bound must be positive, with 2 * g_bound finite"),
        ("g_bound=1e308", "g_bound must be positive, with 2 * g_bound finite"),
        ("g_bound=-1", "g_bound must be positive, with 2 * g_bound finite"),
        ("g_bound=0", "g_bound must be positive, with 2 * g_bound finite"),
        ("box_halfwidth=nan", "box_halfwidth must be positive, with 2 * box_halfwidth finite"),
        ("box_halfwidth=inf", "box_halfwidth must be positive, with 2 * box_halfwidth finite"),
        ("box_halfwidth=1e308",
         "box_halfwidth must be positive, with 2 * box_halfwidth finite"),
        ("schedules=theorem,bogus",
         "schedules must be among ('theorem', 'corollary'), got ('theorem', 'bogus')"),
        ("kinds=linear-adversarial,bogus", "unknown online problem kind: 'bogus'"),
        ("t_values=100,100", "t_values must be distinct"),
    ])
    def test_regret_bad_value_is_usage_error_before_any_round(
            self, tmp_path, capsys, monkeypatch, override, message):
        def no_round(*args):
            raise AssertionError("a round ran before the inputs were checked")

        monkeypatch.setattr(experiments, "_play_online", no_round)
        code = main(["regret", "--seed", "1", "--out", str(tmp_path), "--set", override])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "regret.csv").exists()

    SPECTRUM_RANGE = "lambda_max / cond must be a normal float and n * lambda_max finite"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("override,message", [
        ("n=0", "n and d must be >= 1"),
        ("d=0", "n and d must be >= 1"),
        ("degenerate_n=0", "need degenerate_n >= 1 and 1 <= degenerate_rank < degenerate_d"),
        ("degenerate_rank=50",
         "need degenerate_n >= 1 and 1 <= degenerate_rank < degenerate_d"),
        ("lambda_max=0", "lambda_max must be positive and finite"),
        ("lambda_max=-1", "lambda_max must be positive and finite"),
        ("lambda_max=nan", "lambda_max must be positive and finite"),
        ("lambda_max=inf", "lambda_max must be positive and finite"),
        ("cond=0", "cond must be finite and >= 1"),
        ("cond=-1", "cond must be finite and >= 1"),
        ("cond=0.5", "cond must be finite and >= 1"),
        ("cond=nan", "cond must be finite and >= 1"),
        ("cond=inf", "cond must be finite and >= 1"),
        ("lambda_max=1e308", SPECTRUM_RANGE),
        ("lambda_max=1e-320", SPECTRUM_RANGE),
        ("lambda_max=1e-305", SPECTRUM_RANGE),
    ])
    def test_stability_bad_value_is_usage_error_before_any_solve(
            self, tmp_path, capsys, monkeypatch, override, message):
        def no_solve(*args):
            raise AssertionError("a pool was solved before the inputs were checked")

        monkeypatch.setattr(experiments, "sym_eigh", no_solve)
        code = main(["stability", "--seed", "1", "--out", str(tmp_path), "--set", override])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "stability.csv").exists()

    COND = "cond must be finite and >= 1"
    COND_VALUES = "cond_values must be finite and >= 1"
    RIDGE_SPECTRUM = ("need 0 < lambda_min <= lambda_max, lambda_min a normal float "
                      "and pool_n * lambda_max finite")
    STRIDE = "need 1 <= snapshot_stride <= steps"
    MINNORM_SPECTRUM = "1e-06 * lambda_max must be a normal float and n * lambda_max finite"
    TRAJECTORY_ALGO = "algo must be one of sgd, adam, amsgrad, adasgd, adasgdmax"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sub,override,message", [
        ("theorem-range", "cond=0", COND),
        ("theorem-range", "cond=inf", COND),
        ("theorem-range", "lambda_max=1e-320", SPECTRUM_RANGE),
        ("distance-bound", "cond_values=10,0", COND_VALUES),
        ("distance-bound", "cond_values=inf", COND_VALUES),
        ("distance-bound", "d_values=2,1", "d = 1 admits a single eigenvalue; set cond_values=1"),
        ("theorem-range", "d=1", "d = 1 admits a single eigenvalue; set cond=1"),
        ("trajectory", "cond=0", COND),
        ("ridge-path", "lambda_min=0", RIDGE_SPECTRUM),
        ("ridge-path", "lambda_max=1e308", RIDGE_SPECTRUM),
        ("ridge-path", "snapshot_stride=0", STRIDE),
        ("ridge-path", "snapshot_stride=-10", STRIDE),
        ("ridge-path", "steps=3", STRIDE),
        ("ridge-path", "pool_n=5", "need d <= train_n <= pool_n"),
        ("ridge-path", "recursion_steps=0", "recursion_steps must be >= 1"),
        ("ridge-path", "lambda_min=1e-12", "the recursion check's training subsample is "
                                           "singular; lower lambda_max / lambda_min"),
        ("trajectory", "d=1", "d = 1 admits a single eigenvalue; set cond=1"),
        ("trajectory", "n=5", "n < d forces a singular X.T X; set n >= d"),
        ("trajectory", "steps=0", "steps must be >= 1"),
        ("minnorm", "d=1",
         "d must be >= 2: the problem needs a positive and a zero eigenvalue"),
        ("minnorm", "steps=0", "steps must be >= 1"),
        ("minnorm", "lambda_max=1e-310", MINNORM_SPECTRUM),
        ("minnorm", "lambda_max=1e308", MINNORM_SPECTRUM),
        ("distance-bound", "bound_scale=nan", "bound_scale must be positive and finite"),
        ("distance-bound", "bound_scale=-1", "bound_scale must be positive and finite"),
        ("distance-bound", "bound_scale=inf", "bound_scale must be positive and finite"),
        ("theorem-range", "tol=nan", "tol must be positive and finite"),
        ("theorem-range", "tol=0", "tol must be positive and finite"),
        ("theorem-range", "tol=inf", "tol must be positive and finite"),
        ("distance-bound", "eta_values=nan", "eta_values must be positive and finite"),
        ("theorem-range", "eta_multipliers=-1", "eta_multipliers must be positive and finite"),
        ("trajectory", "eta=nan", "eta must be positive and finite"),
        ("trajectory", "beta1=1", "beta1, beta2 must lie in [0, 1)"),
        ("trajectory", "algo=adabound", TRAJECTORY_ALGO),
        ("trajectory", "algo=bogus", TRAJECTORY_ALGO),
    ])
    def test_bad_value_is_usage_error_before_any_run(
            self, tmp_path, capsys, monkeypatch, sub, override, message):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the inputs were checked")

        monkeypatch.setattr(experiments, "run_trajectory", no_run)
        monkeypatch.setattr(experiments, "run_batch", no_run)
        code = main([sub, "--seed", "1", "--out", str(tmp_path), "--set", override])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sub,override,message", [
        ("heatmap", "cond_values=inf", COND_VALUES),
        ("heatmap", "lambda_max_values=0", "lambda_max_values must be positive and finite"),
        ("heatmap", "lambda_max_values=1e308", SPECTRUM_RANGE),
        ("heatmap", "lambda_max_values=1e-320", SPECTRUM_RANGE),
        ("angle", "lambda_min=1e-320",
         "lambda_min must be a normal float and n * cond * lambda_min finite"),
        ("angle", "steps=-1", "seeds and steps must be >= 1"),
        ("angle", "n=1", "n < 2 forces a singular X.T X; set n >= 2"),
        ("heatmap", "d=1", "d = 1 admits a single eigenvalue; set cond_values=1"),
        ("heatmap", "n=5", "n < d forces a singular X.T X; set n >= d"),
        ("heatmap", "seeds=0", "seeds and steps must be >= 1"),
        ("angle", "angles=0,100", "angle must lie in [0, 90] degrees"),
    ])
    def test_bad_sweep_value_is_usage_error_before_any_batch(
            self, tmp_path, capsys, monkeypatch, sub, override, message):
        def no_batch(*args):
            raise AssertionError("a batch started before the inputs were checked")

        monkeypatch.setattr(experiments, "run_batch", no_batch)
        # groups of a few problems each, so a late bad cell would follow earlier batches
        monkeypatch.setattr(experiments, "GROUP_BYTES", 20_000)
        code = main([sub, "--seed", "1", "--out", str(tmp_path), "--workers", "1",
                     "--set", override])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("sub", ["trajectory", "regret"])
    def test_out_of_memory_is_usage_error(self, tmp_path, capsys, monkeypatch, sub):
        # A plain runner and a checks runner; a real huge allocation could
        # fill the machine under memory overcommit, so the runner fakes it.
        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 800. TiB for an array")

        monkeypatch.setattr(experiments, COMMANDS[sub].runner, too_big)
        out = tmp_path / "out"
        assert main([sub, "--seed", "1", "--out", str(out), "--workers", "1"]) == 2
        assert capsys.readouterr().err == "error: Unable to allocate 800. TiB for an array\n"
        assert not out.exists()

    def test_library_and_cli_write_the_same_bytes(self, tmp_path, capsys):
        assert main(["angle", "--seed", "6", "--out", str(tmp_path / "cli"), "--workers", "1",
                     "--set", "seeds=1", "--set", "steps=20"]) == 0
        path = tmp_path / "lib.csv"
        header = COMMANDS["angle"].outputs["angle.csv"]
        emit_csv(sweep_angle(6, seeds=1, steps=20), header.split(","), str(path))
        assert read(path) == read(tmp_path / "cli" / "angle.csv")

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "file"
        target.write_text("x")
        # out dir path collides with an existing file -> makedirs fails
        code = main(["align-mc", "--seed", "1", "--out", str(target),
                     "--set", "dims=2", "--set", "samples_per_dim=100"])
        assert code == 3



def test_every_traced_layer_resolves_on_the_package():
    # The benchmark worker wraps these names; importing it only loads modules.
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "worker.py")
    spec = importlib.util.spec_from_file_location("bench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    assert worker.LAYERS["optim.step"] == (Optimizer, "step")
    for name, (owner, attr) in worker.LAYERS.items():
        assert callable(getattr(owner, attr, None)), f"{name}: {attr} is gone"
