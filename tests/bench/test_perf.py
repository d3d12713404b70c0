"""Tests for the kernel-backend perf harness and the ``perf`` CLI command."""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench.perf import (
    PERF_ALGORITHMS,
    SNAPSHOT_SCHEMA,
    diff_snapshots,
    load_snapshot,
    measure_size,
    perf_cases,
    render_diff,
    render_snapshot,
    snapshot_path,
    write_snapshot,
)
from repro.cli import main


def _tiny_snapshot(size=64, **kwargs):
    kwargs.setdefault("sa_size_factor", 2)
    return measure_size(size, **kwargs)


class TestCases:
    def test_two_families_per_size(self):
        cases = perf_cases(2000)
        assert [c.label for c in cases] == ["Gbreg(2000,16,3)", "Gnp(2000,deg2.5)"]

    def test_gbreg_width_parity_fixed(self):
        # 2n = 1000: n*d - 16 = 1484 is even, so b stays 16; at 2n = 90,
        # n*d - 16 = 119 is odd and the width bumps to 17.
        assert perf_cases(1000)[0].label == "Gbreg(1000,16,3)"
        assert perf_cases(90)[0].label == "Gbreg(90,17,3)"

    def test_builders_are_seed_deterministic(self):
        from repro.graphs.graph import graph_fingerprint
        from repro.rng import LaggedFibonacciRandom

        case = perf_cases(64)[0]
        a = case.build(LaggedFibonacciRandom(3))
        b = case.build(LaggedFibonacciRandom(3))
        assert graph_fingerprint(a) == graph_fingerprint(b)


class TestMeasure:
    def test_snapshot_shape_and_agreement(self):
        snapshot = _tiny_snapshot(repeats=2)
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert snapshot["size"] == 64
        assert snapshot["ok"] is True
        assert len(snapshot["cases"]) == 2
        assert snapshot["backends"][0] == "array"
        assert "dict" not in snapshot["backends"]
        for case in snapshot["cases"]:
            assert set(case["algorithms"]) == set(PERF_ALGORITHMS)
            for cell in case["algorithms"].values():
                assert cell["cuts_match"] is True
                assert cell["moves"] >= 0
                for backend in snapshot["backends"]:
                    assert cell[f"{backend}_seconds"] > 0
                    assert cell[f"{backend}_moves_per_sec"] == pytest.approx(
                        cell["moves"] / cell[f"{backend}_seconds"]
                    )
                assert not any(
                    key.startswith(("dict_", "speedup")) for key in cell
                )

    def test_streaming_case_included_on_request(self):
        snapshot = _tiny_snapshot(algorithms=("kl",), streaming=True)
        stream = snapshot["streaming"]
        assert stream["cuts_match"] is True
        assert stream["shm_exports"] >= 1
        assert stream["worker_csr_compiles"] == 0
        assert stream["replicas"] == len(stream["cuts"])
        assert "streaming" in render_snapshot(snapshot)

    def test_streaming_excluded_below_floor_by_default(self):
        assert "streaming" not in _tiny_snapshot(algorithms=("kl",))

    def test_algorithm_subset(self):
        snapshot = _tiny_snapshot(algorithms=("kl",))
        for case in snapshot["cases"]:
            assert list(case["algorithms"]) == ["kl"]

    def test_render_snapshot_mentions_cells(self):
        snapshot = _tiny_snapshot(algorithms=("kl", "fm"))
        text = render_snapshot(snapshot)
        assert "Gbreg(64," in text
        assert " kl " in text and " fm " in text

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown perf algorithm"):
            _tiny_snapshot(algorithms=("nope",))


class TestSnapshotIO:
    def test_write_load_round_trip(self, tmp_path):
        snapshot = _tiny_snapshot(algorithms=("kl",))
        path = write_snapshot(snapshot, str(tmp_path))
        assert path == snapshot_path(str(tmp_path), 64)
        assert load_snapshot(path) == snapshot

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_10.json"
        path.write_text(json.dumps({"schema": 999, "size": 10, "cases": []}))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(str(path))

    def test_schema1_baselines_still_load_and_diff(self, tmp_path):
        # Committed BENCH_<n>.json files predate the per-backend columns;
        # they must keep working as --check baselines.
        legacy = _legacy_schema1(_synthetic({"kl": 16}))
        path = tmp_path / "BENCH_500.json"
        path.write_text(json.dumps(legacy))
        loaded = load_snapshot(str(path))
        report = diff_snapshots(loaded, _synthetic({"kl": 16}))
        assert report["ok"]
        assert "Gbreg" in render_snapshot(loaded)


def _synthetic(cuts, moves=100):
    """A snapshot with one case and the given {algo: cut} cells."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "size": 500,
        "seed": 0,
        "sa_size_factor": 4,
        "repeats": 1,
        "backends": ["array"],
        "ok": True,
        "cases": [
            {
                "label": "Gbreg(500,16,3)",
                "vertices": 500,
                "edges": 750,
                "csr_compile_seconds": 0.001,
                "algorithms": {
                    name: {
                        "array_seconds": 0.5,
                        "array_moves_per_sec": moves / 0.5,
                        "backends": ["array"],
                        "cut": cut,
                        "moves": moves,
                        "cuts_match": True,
                    }
                    for name, cut in cuts.items()
                },
            }
        ],
    }


def _legacy_schema1(snapshot):
    """``snapshot`` in the schema-1 cell shape (csr/dict columns, speedup)."""
    legacy = copy.deepcopy(snapshot)
    legacy["schema"] = 1
    legacy.pop("backends", None)
    for case in legacy["cases"]:
        for name, cell in case["algorithms"].items():
            seconds = cell.get("array_seconds", 0.5)
            case["algorithms"][name] = {
                "csr_seconds": seconds,
                "csr_moves_per_sec": cell["moves"] / seconds,
                "dict_seconds": 3 * seconds,
                "dict_moves_per_sec": cell["moves"] / (3 * seconds),
                "speedup": 3.0,
                "cut": cell["cut"],
                "moves": cell["moves"],
                "cuts_match": True,
            }
    return legacy


class TestDiff:
    def test_identical_snapshots_pass(self):
        snap = _synthetic({"kl": 16, "sa": 18})
        report = diff_snapshots(snap, snap)
        assert report["ok"]
        assert report["mismatches"] == []
        assert len(report["compared"]) == 2

    def test_changed_cut_or_moves_flagged(self):
        old = _synthetic({"kl": 16, "sa": 18, "fm": 20})
        new = _synthetic({"kl": 17, "sa": 18, "fm": 20})
        new["cases"][0]["algorithms"]["fm"]["moves"] = 101
        report = diff_snapshots(old, new)
        assert not report["ok"]
        assert [r["algorithm"] for r in report["mismatches"]] == ["fm", "kl"]
        assert "MISMATCH" in render_diff(report)

    def test_machine_speed_cancels_out(self):
        # Timings never fail the gate: a uniformly 3x slower run passes.
        old = _synthetic({"kl": 16})
        slow = copy.deepcopy(old)
        slow["cases"][0]["algorithms"]["kl"]["array_seconds"] *= 3.0
        assert diff_snapshots(old, slow)["ok"]

    @pytest.mark.parametrize("key", ["seed", "sa_size_factor"])
    def test_different_seeded_workload_refused(self, key):
        old = _synthetic({"kl": 16})
        new = _synthetic({"kl": 16})
        new[key] += 1
        with pytest.raises(ValueError, match=key):
            diff_snapshots(old, new)

    def test_missing_cells_reported_not_failed(self):
        old = _synthetic({"kl": 16, "sa": 18})
        new = _synthetic({"kl": 16})
        report = diff_snapshots(old, new)
        assert report["ok"]
        assert report["missing"] == [
            {"label": "Gbreg(500,16,3)", "algorithm": "sa"}
        ]
        assert "missing" in render_diff(report)


class TestObsFlag:
    def test_measure_records_obs_state(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        assert _tiny_snapshot(algorithms=("kl",))["obs"] is True
        monkeypatch.setenv("REPRO_OBS", "0")
        assert _tiny_snapshot(algorithms=("kl",))["obs"] is False

    def test_diff_refuses_mixed_instrumentation(self):
        old = _synthetic({"kl": 16})
        new = _synthetic({"kl": 16})
        old["obs"] = True
        new["obs"] = False
        with pytest.raises(ValueError, match="refusing to diff perf snapshots"):
            diff_snapshots(old, new)

    def test_diff_accepts_matching_instrumentation(self):
        old = _synthetic({"kl": 16})
        new = _synthetic({"kl": 16})
        old["obs"] = new["obs"] = True
        assert diff_snapshots(old, new)["ok"]

    def test_legacy_snapshots_without_the_key_still_diff(self):
        # Committed BENCH_<n>.json baselines predate the obs key; a
        # snapshot that records it must still compare against them.
        old = _synthetic({"kl": 16})  # no "obs" key
        new = _synthetic({"kl": 16})
        new["obs"] = True
        assert diff_snapshots(old, new)["ok"]
        assert diff_snapshots(new, old)["ok"]


_TINY = ["perf", "--size", "64", "--sa-size-factor", "1"]


class TestCli:
    def test_perf_measure_and_self_check(self, tmp_path, capsys):
        out = tmp_path / "snapshots"
        code = main([*_TINY, "--out-dir", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "array(s)" in stdout and "moves" in stdout
        assert (out / "BENCH_64.json").exists()
        # Re-measuring reproduces every seeded cut and move count.
        code = main([*_TINY, "--out-dir", str(tmp_path / "second"), "--check", str(out)])
        assert code == 0
        assert "all seeded cuts and moves match" in capsys.readouterr().out

    def test_check_fails_on_altered_baseline_cut(self, tmp_path, capsys):
        main([*_TINY, "--out-dir", str(tmp_path / "measured")])
        baseline = load_snapshot(snapshot_path(str(tmp_path / "measured"), 64))
        baseline["cases"][0]["algorithms"]["kl"]["cut"] += 1
        write_snapshot(baseline, str(tmp_path / "baseline"))
        capsys.readouterr()
        code = main(
            [*_TINY, "--out-dir", str(tmp_path / "new"),
             "--check", str(tmp_path / "baseline")]
        )
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_check_passes_unchanged_schema1_baseline(self, tmp_path, capsys):
        main([*_TINY, "--out-dir", str(tmp_path / "measured")])
        measured = load_snapshot(snapshot_path(str(tmp_path / "measured"), 64))
        write_snapshot(_legacy_schema1(measured), str(tmp_path / "baseline"))
        assert load_snapshot(snapshot_path(str(tmp_path / "baseline"), 64))["schema"] == 1
        code = main(
            [*_TINY, "--out-dir", str(tmp_path / "new"),
             "--check", str(tmp_path / "baseline")]
        )
        assert code == 0
        assert "all seeded cuts and moves match" in capsys.readouterr().out

    def test_perf_diff_detects_regression(self, tmp_path, capsys):
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        write_snapshot(_synthetic({"kl": 16}), str(old_dir))
        write_snapshot(_synthetic({"kl": 18}), str(new_dir))
        old_path = snapshot_path(str(old_dir), 500)
        new_path = snapshot_path(str(new_dir), 500)
        assert main(["perf", "--diff", old_path, new_path]) == 1
        assert "MISMATCH" in capsys.readouterr().out
        assert main(["perf", "--diff", old_path, old_path]) == 0

    def test_perf_diff_bad_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["perf", "--diff", missing, missing]) == 2
        assert "cannot diff" in capsys.readouterr().err
