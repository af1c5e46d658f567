"""The command-line surface: outputs, JSON modes, artifacts, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from artingeo.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_nf_command(capsys):
    code, payload = run_json(
        capsys, "--preset", "triangle345", "--json", "nf", "aBBAcbbCBacaacA"
    )
    assert code == 0
    assert payload["normal_form"] == "BAACBccbaccac"
    assert payload["length"] == 13 and payload["input_length"] == 15
    assert len(payload["log"]) == 15


def test_nf_identity(capsys):
    code, payload = run_json(capsys, "--preset", "da3", "--json", "nf", "")
    assert code == 0 and payload["normal_form"] == "" and payload["log"] == []


def test_geodesic_command(capsys):
    code, payload = run_json(capsys, "--preset", "da3", "--json", "geodesic", "abaB")
    assert code == 0 and payload["geodesic"] is False
    code, payload = run_json(capsys, "--preset", "da3", "--json", "geodesic", "aba")
    assert payload["geodesic"] is True and payload["unique_representative"] is False


def test_ball_command(capsys):
    code, payload = run_json(capsys, "--preset", "da3", "--json", "ball", "3")
    assert code == 0
    assert payload["sphere_sizes"] == {"0": 1, "1": 4, "2": 12, "3": 30}


def test_divisors_command(capsys):
    code, payload = run_json(
        capsys,
        "--preset",
        "counterexample433",
        "--allow-counterexample",
        "--json",
        "divisors",
        "babacabab",
        "1",
        "2",
    )
    assert code == 0
    assert payload["ld"] == "abab"  # the normal form of baba
    assert payload["ld_prime_failure"] == ["a", "b"]


def test_divisors_guard(capsys):
    code, payload = run_json(
        capsys, "--preset", "counterexample433", "--json", "divisors", "ab", "1", "2"
    )
    # LD and RD are fine, only LD' needs the hypothesis; the command reports it
    assert code == 0
    assert payload["ld"] == payload["rd"] == "ab"
    assert "ld_prime" not in payload and "--allow-counterexample" in payload["ld_prime_error"]


def test_merge_and_compress_commands(capsys):
    code, payload = run_json(capsys, "--preset", "da3", "--json", "merge", "ab", "ab")
    assert code == 0 and payload["r"] == 1
    code, payload = run_json(capsys, "--preset", "da3", "--json", "compress", "ab", "ab")
    assert code == 0 and payload["word"]
    # compress outside a dihedral presentation is a precondition failure
    code, payload = run_json(
        capsys, "--preset", "triangle345", "--json", "compress", "ab", "ab"
    )
    assert code == 2 and "error" in payload


def test_error_json(capsys):
    code, payload = run_json(capsys, "--preset", "da3", "--json", "nf", "a?b")
    assert code == 2 and payload["type"] == "ValueError"
    code, payload = run_json(capsys, "--preset", "nonesuch.txt", "--json", "nf", "a")
    assert code == 2
    code, payload = run_json(capsys, "--preset", "nonesuch.txt", "--json", "repro-paper")
    assert code == 2 and "--preset" in payload["error"]
    code, payload = run_json(
        capsys, "--preset", "counterexample433", "--json", "merge", "ab", "ba"
    )
    assert code == 2 and payload["type"] == "HypothesisError"
    assert "--allow-counterexample" in payload["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ball", "-1"],
        ["d1-scan", "--radius", "-1"],
        ["d2-scan", "--radius", "-1"],
        ["rd-check", "--radius", "-1"],
        ["rd-check", "--radius", "2", "--trials", "-2"],
        ["divisors", "ab", "1", "5"],
        ["d1-scan", "--min-kl", "-1"],
        ["d1-scan", "--min-kl"],
        ["--out", "unused", "nf", "ab"],
        ["--out", "unused", "geodesic", "ab"],
        ["--out", "unused", "divisors", "ab", "1", "2"],
        ["--out", "unused", "merge", "ab", "ab"],
        ["--out", "unused", "compress", "ab", "ab"],
        ["repro-paper"],
        ["--allow-counterexample", "nf", "ab"],
        ["--allow-counterexample", "geodesic", "ab"],
        ["--allow-counterexample", "ball", "2"],
        ["--allow-counterexample", "d1-scan", "--radius", "2"],
        ["--allow-counterexample", "rd-check", "--radius", "2"],
        ["d1-scan", "--radius", "4", "--min-kl", "1", "3"],
        ["divisors", "ab", "2", "2"],
        ["divisors", "ab", "0", "1"],
    ],
    ids=[
        "ball", "d1-scan", "d2-scan", "rd-check-radius", "rd-check-trials", "divisors",
        "d1-scan-min-kl", "d1-scan-min-kl-empty", "nf-out", "geodesic-out",
        "divisors-out", "merge-out", "compress-out", "repro-paper-preset", "nf-allow",
        "geodesic-allow", "ball-allow", "d1-scan-allow", "rd-check-allow", "d1-scan-min-kl-no-cell",
        "divisors-same", "divisors-zero",
    ],
)
def test_out_of_range_input(capsys, argv):
    code, payload = run_json(capsys, "--preset", "da3", "--json", *argv)
    assert code == 2 and "error" in payload
    if argv[0] == "divisors":
        pair = tuple(argv[2:])
        expected = {("1", "5"): "generator 5", ("2", "2"): "distinct", ("0", "1"): "generator 0"}[pair]
        assert expected in payload["error"]
    if argv[-2:] == ["1", "3"]:
        assert "--min-kl 3" in payload["error"] and "radius 4" in payload["error"]


@pytest.mark.parametrize("via", ["out"])
def test_file_system_errors_keep_json_contract(tmp_path, capsys, via):
    # a regular file where a directory is needed is an exit-2 JSON error
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = ["--preset", "da3", "--json", f"--{via}", str(blocker), "ball", "2"]
    code, payload = run_json(capsys, *argv)
    assert code == 2 and payload["type"] == "FileExistsError"


@pytest.mark.parametrize(
    "argv, first_line",
    [
        (["--preset", "triangle345", "--json", "nf", "abcABC" * 800], b"{\n"),
        (["--preset", "da3", "ball", "2"], None),
        (["--preset", "da3", "nf", "a?b"], None),
    ],
    ids=["report-larger-than-a-pipe", "report-closed-before-written", "error-closed-before-written"],
)
def test_closed_stdout_ends_quietly(argv, first_line):
    # stdout block-buffered, as for a user: a short report reaches the pipe only when flushed
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(root / "src")
    with subprocess.Popen(
        [sys.executable, "-m", "artingeo.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=root,
    ) as proc:
        if first_line is not None:
            assert proc.stdout.readline() == first_line
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""


def test_preset_defaults_to_da3(capsys):
    assert run_json(capsys, "--json", "ball", "3") == run_json(
        capsys, "--preset", "da3", "--json", "ball", "3"
    )


def test_repro_command(capsys):
    code, out = run(capsys, "repro-paper")
    assert code == 0
    assert "all examples reproduced" in out


def test_d1_artifacts_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    for out in (out1, out2):
        code, _ = run(
            capsys,
            "--preset",
            "da3",
            "--out",
            str(out),
            "d1-scan",
            "--radius",
            "4",
            "--min-kl",
            "1",
            "2",
        )
        assert code == 0
    assert (out1 / "d1.csv").read_bytes() == (out2 / "d1.csv").read_bytes()
    assert (out1 / "d1_summary.json").read_bytes() == (out2 / "d1_summary.json").read_bytes()


def test_d1_min_kl_repeats_are_ignored(tmp_path, capsys):
    rows = {}
    for values in (["1"], ["1", "1"]):
        out = tmp_path / "-".join(values)
        code, _ = run(
            capsys, "--preset", "da3", "--out", str(out), "d1-scan", "--radius", "4",
            "--min-kl", *values,
        )
        assert code == 0
        rows[len(values)] = (out / "d1.csv").read_bytes()
    assert rows[1] == rows[2]


def test_operator_norms_script():
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    res = subprocess.run(
        [sys.executable, str(root / "scripts" / "operator_norms.py"), "3", "dainf"],
        capture_output=True, text=True, env=env, cwd=root,
    )
    assert res.returncode == 0, res.stderr
    lines = [line.strip() for line in res.stdout.splitlines()]
    assert "R=2: 2.933522" in lines and "R=3: 2.933522" in lines
    # a maximum radius below 2 leaves no radii: a header and no rows
    res = subprocess.run(
        [sys.executable, str(root / "scripts" / "operator_norms.py"), "1", "dainf"],
        capture_output=True, text=True, env=env, cwd=root,
    )
    assert res.returncode == 0, res.stderr
    assert not any(line.strip().startswith("R=") for line in res.stdout.splitlines())


def test_rd_check_artifacts_deterministic(tmp_path, capsys):
    outs = []
    for name in ("x", "y"):
        out = tmp_path / name
        code, _ = run(
            capsys,
            "--preset",
            "da3",
            "--out",
            str(out),
            "rd-check",
            "--radius",
            "4",
            "--trials",
            "5",
            "--seed",
            "3",
        )
        assert code == 0
        outs.append(out)
    assert (outs[0] / "rd.csv").read_bytes() == (outs[1] / "rd.csv").read_bytes()
    assert (outs[0] / "rd_summary.json").read_bytes() == (
        outs[1] / "rd_summary.json"
    ).read_bytes()


def test_d2_scan_command(tmp_path, capsys):
    out = tmp_path / "d2"
    code, _ = run(
        capsys, "--preset", "da3", "--out", str(out), "d2-scan", "--radius", "3"
    )
    assert code == 0
    header = (out / "d2.csv").read_text().splitlines()[0]
    assert header.startswith("presentation,g,k,l,S_size,T_size")


# sha256 of the --out artifacts of `d2-scan --radius 4` (d2.csv, measured
# when S(g,k,l) was still built from the elements u^-1 g over the sphere C_k;
# d2_summary.json, measured before the per-instance caches shared one memo
# helper) and `d1-scan --radius 5` (measured before the Garside power d(g)
# and the letter-power strips shared ShortlexEngine.strip_power)
SCAN_DIGESTS = {
    ("d2-scan", "triangle345"): {
        "d2.csv": "f9da6c73a9719a308714e70c41b6d73ce6b5514bae63693d5dbac3f808bd5298",
        "d2_summary.json": "fc61b895852953019b39806cd2e29164b00693190042c10c618dbd788fb0a78c",
    },
    ("d2-scan", "triangle444"): {
        "d2.csv": "fa737d7f67fc15766185292ac859368e763552a09ea9aaf09882ccd6c4c257de",
        "d2_summary.json": "4e3171adb6fa10a49e2192d392ba5ec6b951205106825d118cfa2032571e98b0",
    },
    ("d2-scan", "da4"): {
        "d2.csv": "9431c6df31202caf5356dc8ed634beb4be6458f670ed4aca6f399bd82129e4ca",
        "d2_summary.json": "96374eaed35ee24542a55959210cba11871403f99fae1751ce41d6c998bc19bd",
    },
    ("d1-scan", "triangle444"): {
        "d1.csv": "f587488cae1035e4d641b21401cd02eb35f3151ab372a2bc5ebfa3c1a5acca47",
        "d1_summary.json": "9e8c64d3be54d504c8551133a57f44bac30d617e880207e2912b70f94b48798f",
    },
    ("d1-scan", "triangle345"): {
        "d1.csv": "afc26d1206dd6c562403e221ceba7a51a80fd16658c55374ad8c50e341d5c3c7",
        "d1_summary.json": "ec5683411aac89d70389cfb9e4e7467d5cc0533bcf6278b5941547d8ae43fe2b",
    },
}
SCAN_RADIUS = {"d2-scan": "4", "d1-scan": "5"}


# the d2-scan cases keep their bare preset ids
@pytest.mark.parametrize(
    "command, preset",
    list(SCAN_DIGESTS),
    ids=[p if c == "d2-scan" else f"{c}-{p}" for c, p in SCAN_DIGESTS],
)
def test_d2_scan_artifact_digest(tmp_path, capsys, command, preset):
    out = tmp_path / "scan"
    code, _ = run(
        capsys, "--preset", preset, "--out", str(out), command, "--radius", SCAN_RADIUS[command]
    )
    assert code == 0
    for fname, digest in SCAN_DIGESTS[(command, preset)].items():
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest, fname


# sha256 of the --out artifacts of `ball R`, measured while `ball` could
# still cross-check an oracle ball through a cache directory
BALL_DIGESTS = {
    ("triangle444", "5"): {
        "ball.csv": "435473a65a16ec5887e1c78352ca0376473b5beb1049faac3df772b88c17c78e",
        "ball.json": "5038dc9da6671f4ca43fc014af301e08edcf694168252ab4776c118157a05292",
    },
    ("dainf", "6"): {
        "ball.csv": "e9006d0a3cab74906861bc53d4ba2433880234ec11e87e084ea86e0a94098f85",
        "ball.json": "edbd4b5d5f11d8eedcb2dcc6c3f71ff409ae6c9d2d2608013d4094819842b13b",
    },
}


@pytest.mark.parametrize("preset, radius", list(BALL_DIGESTS), ids=[p for p, _ in BALL_DIGESTS])
def test_ball_artifact_digest(tmp_path, capsys, preset, radius):
    code, _ = run(capsys, "--preset", preset, "--out", str(tmp_path), "ball", radius)
    assert code == 0
    for fname, digest in BALL_DIGESTS[(preset, radius)].items():
        assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == digest, fname


def test_repro_artifact_digest(tmp_path, capsys):
    # sha256 of repro.json, measured before the per-instance caches shared
    # one memo helper
    code, _ = run(capsys, "--out", str(tmp_path), "repro-paper")
    assert code == 0
    digest = hashlib.sha256((tmp_path / "repro.json").read_bytes()).hexdigest()
    assert digest == "d762690ec6dc7be038f40cabc1aa15ab32a5a22be128a6278bf448f2ec280815"


# every --out command and the exact set of files it writes
ARTIFACT_FILES = {
    ("ball", "3"): {"ball.csv", "ball.json"},
    ("d1-scan", "--radius", "3"): {"d1.csv", "d1_summary.json"},
    ("d2-scan", "--radius", "2"): {"d2.csv", "d2_summary.json"},
    ("rd-check", "--radius", "3", "--trials", "2"): {"rd.csv", "rd_summary.json"},
    ("repro-paper",): {"repro.json"},
}


@pytest.mark.parametrize("argv", list(ARTIFACT_FILES), ids=[a[0] for a in ARTIFACT_FILES])
def test_out_writes_exactly_its_artifact_files(tmp_path, capsys, argv):
    preset = [] if argv[0] == "repro-paper" else ["--preset", "da3"]
    written = []
    for _ in range(2):  # the second run overwrites the first in place
        code, _ = run(capsys, *preset, "--out", str(tmp_path), *argv)
        assert code == 0
        written.append({p.name: p.read_bytes() for p in tmp_path.iterdir()})
    assert set(written[0]) == ARTIFACT_FILES[argv]
    assert written[1] == written[0]


def test_repro_json_report_matches_artifact(tmp_path, capsys):
    code, payload = run_json(capsys, "--json", "--out", str(tmp_path), "repro-paper")
    assert code == 0 and payload["ok"] is True
    artifact = json.loads((tmp_path / "repro.json").read_text())
    assert all("seconds" in r for r in payload["results"])
    stable = [{k: v for k, v in r.items() if k != "seconds"} for r in payload["results"]]
    assert stable == artifact["results"]


def test_presentation_file_argument(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("n = 2\nmatrix =\n1 5\n5 1\n")
    code, payload = run_json(capsys, "--preset", str(path), "--json", "ball", "2")
    assert code == 0 and payload["sphere_sizes"]["2"] == 12
