import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cmkit
import cmkit.lattice
import cmkit.torsion
from cmkit import build_record
from cmkit.cli import _CSV_COLUMNS, _census_row, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_cf_json(capsys):
    code, out, _ = run_cli(capsys, "cf", "9", "2")
    assert code == 0
    (obj,) = json_lines(out)
    assert obj == {"schema": "cmkit/1", "command": "cf", "p": 9, "q": 2, "cf": [5, 2]}


def test_cf_more_examples(capsys):
    code, out, _ = run_cli(capsys, "cf", "7", "5")
    assert json_lines(out)[0]["cf"] == [2, 2, 3]
    code, out, _ = run_cli(capsys, "cf", "5", "1")
    assert json_lines(out)[0]["cf"] == [5]


def test_cf_bad_input_exit_two(capsys):
    code, _, err = run_cli(capsys, "cf", "4", "2")
    assert code == 2
    assert "error" in err


def test_cf_csv(capsys):
    code, out, _ = run_cli(capsys, "cf", "9", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["p,q,cf", "9,2,5 2"]


def test_torsion_json(capsys):
    code, out, _ = run_cli(capsys, "torsion", "1", "2", "2")
    assert code == 0
    (obj,) = json_lines(out)
    assert obj["g"] == 2 and obj["p"] == 9 and obj["t"] == [1, 1, 0]


def test_torsion_unknot(capsys):
    code, out, _ = run_cli(capsys, "torsion", "1", "1")
    (obj,) = json_lines(out)
    assert obj["g"] == 0 and obj["p"] == 2 and obj["t"] == [0]


def test_torsion_witness_forced_value(capsys):
    code, out, _ = run_cli(capsys, "torsion", "1", "1", "3")
    (obj,) = json_lines(out)
    assert obj["t"][2] == 1 and obj["t"][3] == 0


def test_torsion_rejects_non_changemaker(capsys):
    code, _, err = run_cli(capsys, "torsion", "1", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "torsion", "0", "1")
    assert code == 2


def test_torsion_past_int32_limit_exits_three(capsys, monkeypatch):
    # p = 357,913,942, far past STAIRCASE_MAX_P (and past where 32-bit
    # level costs n+1 + 8p would overflow): refused before any table exists
    monkeypatch.setattr(
        cmkit.torsion, "_min_costs", lambda *args: pytest.fail("knapsack ran past the capacity")
    )
    sigma = (1, 1, *(2**k for k in range(1, 15)))
    assert sum(v * v for v in sigma) == 357_913_942
    code, out, err = run_cli(capsys, "torsion", *map(str, sigma))
    assert code == 3
    assert out == ""
    assert "staircase capacity" in err


def test_torsion_past_p_capacity_exits_three(capsys, monkeypatch):
    # just past STAIRCASE_MAX_P: refused before any table exists
    monkeypatch.setattr(
        cmkit.torsion, "_min_costs", lambda *args: pytest.fail("knapsack ran past the capacity")
    )
    sigma = (*(2**k for k in range(10)), 639, 1024, 2048)
    assert sum(v * v for v in sigma) == cmkit.torsion.STAIRCASE_MAX_P + 726
    code, out, err = run_cli(capsys, "torsion", *map(str, sigma))
    assert code == 3
    assert out == ""
    assert "staircase capacity" in err


def test_torsion_past_work_capacity_exits_three(capsys, monkeypatch):
    # rank 206, inside STAIRCASE_MAX_P: its knapsack took 61 s, and the
    # work bound (2.6e11 cells) refuses it before any table exists
    monkeypatch.setattr(
        cmkit.torsion, "_min_costs", lambda *args: pytest.fail("knapsack ran past the capacity")
    )
    sigma = (1, 1, *(2**k for k in range(1, 7)), *(100,) * 199)
    assert sum(v * v for v in sigma) == 1_995_462 < cmkit.torsion.STAIRCASE_MAX_P
    code, out, err = run_cli(capsys, "torsion", *map(str, sigma))
    assert code == 3
    assert out == ""
    assert "work capacity" in err


def test_gram_linear(capsys):
    code, out, _ = run_cli(capsys, "gram", "--linear", "9", "2")
    (obj,) = json_lines(out)
    assert obj["gram"] == [[-5, 1], [1, -2]]


def test_gram_sigma_standard_shape(capsys):
    code, out, _ = run_cli(capsys, "gram", "1", "1", "1", "2")
    (obj,) = json_lines(out)
    assert obj["gram"] == [[-2, 1, 0], [1, -2, 1], [0, 1, -3]]


def test_gram_sigma_general(capsys):
    code, out, _ = run_cli(capsys, "gram", "1", "1", "3")
    (obj,) = json_lines(out)
    assert len(obj["gram"]) == 2


def test_gram_basis_choice_edges(capsys):
    # (2, 2) and (0, 1, 2) end in 2 but are not sigma_0 = 1 changemakers of
    # shape (1^k, 2^m): they take complement_basis, recorded before the
    # basis choice moved into one function
    for values, gram in (((2, 2), [[-2]]), ((0, 1, 2), [[-1, 0], [0, -5]])):
        code, out, _ = run_cli(capsys, "gram", *map(str, values))
        assert code == 0
        assert json_lines(out)[0]["gram"] == gram
    code, out, _ = run_cli(capsys, "gram", "1", "1", "2", "2")
    assert code == 0
    digest = "6165668073fbc6120f7db6fa41f67196acf94f82358b3c52761fe31b11dd34bb"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("values", [("0",), ("0", "0"), ("0", "0", "0", "0")])
def test_gram_zero_sigma_exits_two(capsys, values):
    code, out, err = run_cli(capsys, "gram", *values)
    assert code == 2
    assert out == ""
    assert err == "error: sigma must be nonzero\n"


def test_gram_csv(capsys):
    code, out, _ = run_cli(capsys, "gram", "--linear", "7", "5", "--format", "csv")
    assert out.splitlines() == ["-2,1,0", "1,-2,1", "0,1,-3"]


def test_census_json_stream(capsys):
    code, out, _ = run_cli(capsys, "census", "--max-rank", "2")
    assert code == 0
    lines = json_lines(out)
    assert lines[0]["kind"] == "header" and lines[0]["schema"] == "cmkit/1"
    records = [l for l in lines if l["kind"] == "record"]
    summary = lines[-1]
    assert summary["kind"] == "summary"
    assert summary["records"] == len(records) == 8
    assert summary["lemma5_holds"] and summary["theorem1_holds"]
    assert records[0]["sigma"] == [1, 1]


def test_census_filter_and_quiet(capsys):
    code, out, _ = run_cli(capsys, "census", "--max-rank", "3", "--sigma-n", "2", "--quiet")
    lines = json_lines(out)
    kinds = {l["kind"] for l in lines}
    assert kinds == {"header", "summary"}
    assert lines[-1]["records"] == 6


def test_census_empty(capsys):
    code, out, _ = run_cli(capsys, "census", "--max-rank", "0")
    assert code == 0
    lines = json_lines(out)
    assert lines[-1]["records"] == 0


def test_census_capacity_exit_three(capsys):
    code, out, err = run_cli(capsys, "census", "--max-rank", "11")
    assert code == 3
    assert out == ""


def test_census_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "census", "--max-rank", "3")
    _, second, _ = run_cli(capsys, "census", "--max-rank", "3")
    assert first == second


def test_census_csv(capsys):
    code, out, _ = run_cli(capsys, "census", "--max-rank", "2", "--format", "csv")
    lines = out.splitlines()
    assert lines[0].startswith("rank,sigma,p,g,k,classification")
    assert any(line.startswith("# records=8") for line in lines)
    data = [line for line in lines if not line.startswith("#") and not line.startswith("rank,")]
    assert len(data) == 8


@pytest.mark.parametrize(
    "sigma, row",
    [
        ((1, 2, 2), "2,1 2 2,9,2,1,family_1_2s,9,2,1 1 0,2 1,False,"),
        ((1, 1, 3), "2,1 1 3,11,3,,sigma_n_ge_3,,,1 1 1 0,3 2,False,"),
    ],
    ids=["tail_of_2s", "sigma_n_ge_3"],
)
def test_census_csv_columns_come_from_the_record(sigma, row):
    # a tail-of-2s record (k and linear set) and a sigma_n >= 3 one (both
    # None): the header names to_dict()'s fields, kind dropped and linear
    # split in two, so a field added to the record must reach the header
    rec = build_record(sigma)
    columns = []
    for name in rec.to_dict():
        if name == "linear":
            columns += ["linear_p", "linear_q"]
        elif name != "kind":
            columns.append(name)
    assert _CSV_COLUMNS.split(",") == columns
    assert _census_row(rec) == row
    assert len(row.split(",")) == len(columns)


def test_census_out_file(tmp_path, capsys):
    target = tmp_path / "census.jsonl"
    code, out, _ = run_cli(capsys, "census", "--max-rank", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    lines = [json.loads(line) for line in target.read_text().splitlines()]
    assert lines[-1]["records"] == 8


# SHA-256 of the rank-5 census file in each format, recorded from the
# reference DP and the per-index round trip before either was optimised.
CENSUS_RANK5_SHA256 = {
    "json": "510bd1cf50e842ae2ea95ce9a8bc1974ccb2cfae4f6f1fc0e253901be76703b6",
    "csv": "1df1e9f19eab1db1c6c3914024c9046e0a493a9527df839610a936dba378f673",
}


@pytest.mark.parametrize("fmt", sorted(CENSUS_RANK5_SHA256))
def test_census_rank_five_bytes_pinned(tmp_path, capsys, fmt):
    target = tmp_path / f"census.{fmt}"
    code, out, _ = run_cli(
        capsys, "census", "--max-rank", "5", "--format", fmt, "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert hashlib.sha256(target.read_bytes()).hexdigest() == CENSUS_RANK5_SHA256[fmt]


# SHA-256 of non-quiet `verify <claim> --max-rank 7`, recorded from the
# per-vector sweeps before the prefix walk replaced them above rank 6.
VERIFY_RANK7_SHA256 = {
    "theorem1": "2ba2a3b971b0706235957bde1b56610729b3fcedd278195430347ff40809cb5a",
    "lemma5": "a46b015f3a3fd081f25c895c6245a1487e225cd446e454535eb89434de72807c",
}


@pytest.mark.parametrize("claim", sorted(VERIFY_RANK7_SHA256))
def test_verify_rank_seven_bytes_pinned(capsys, claim):
    code, out, _ = run_cli(capsys, "verify", claim, "--max-rank", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_RANK7_SHA256[claim]


def test_verify_lemma4_rank_six_bytes_pinned(capsys):
    # non-quiet lemma4 walks every vector (49,579 lines at rank 6, about
    # 1.8 million at rank 7); recorded before the sweeps shared one loop
    code, out, _ = run_cli(capsys, "verify", "lemma4", "--max-rank", "6")
    assert code == 0
    assert out.count("\n") == 49_579
    digest = "5f32842f3b7727c5011b3be10ddb325dc4cf5c64d3d0720f30a8b6627235eaea"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `torsion <sigma>` in each format for staircases with p from
# 4,267 to 87,381, recorded from a DP over the residues mod 2p, an
# independent route to the same staircases.
TORSION_LARGE_P_SHA256 = {
    (1, 1, 2, 4, 8, 16, 30, 55): (
        "cd11d04d1ec52dbe32084ddfa4154e937019fd24c8f9e8ecc5251d93aac636ac",
        "d9018e9cb2e91a5634eef0ac27a236dea5d85b9ab6f5693ef3177974304c3dc9",
    ),
    (1, 1, 1, 3, 3, 9, 17, 35, 60): (
        "f0e8619f568ce36bc8654041302d5bab47079342ed70ddb3f2e105180be6161f",
        "d8d079647aee3eadb3d4cbbfe085804b2e6eda77897dc52ff5ecca6cbb87f11e",
    ),
    (1, 2, 3, 5, 10, 20, 40, 80, 120): (
        "0ca8c30374d346f6ed7002517d20a2f082c1d3203058b85294b6e1a56c8eaa75",
        "d53bf2862753a6684a6decdc96dfdf32e03ccab317c056524c54b39bc1ba46a9",
    ),
    (1, 1, 2, 2, 6, 12, 24, 48, 96, 180): (
        "02de1dc538ed8d8ea575568453a17bb812f648f83b5900ab6fa436da5df37fa5",
        "3b8f668be494c7ae24e35364c769ec791f9e157d4a28611d3fb5ca43b5c7d72e",
    ),
    (1, 2, 4, 8, 16, 32, 64, 128, 200): (
        "c276b5e7d8bacbb6e69038b7680accd79c1f246cf44b5da823cfd2af7db6983d",
        "d65dc09b6f2a0fc29a9eab05169a64f4c6ac44f6644db883eaa01b12ec803d11",
    ),
    (1, 2, 4, 8, 16, 32, 64, 128, 256): (
        "a4f142cca70e0f161efaa185d7c763254c0c94ac756401fa05c0bee35d12c1bb",
        "011dd82a0b715b50e0b8b441d867f99849da663158a1a846742cd0871368fe35",
    ),
}


@pytest.mark.parametrize("sigma", sorted(TORSION_LARGE_P_SHA256))
def test_torsion_large_p_bytes_pinned(capsys, sigma):
    for fmt, digest in zip(("json", "csv"), TORSION_LARGE_P_SHA256[sigma]):
        code, out, _ = run_cli(capsys, "torsion", *map(str, sigma), "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


def test_verify_cli_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma5", "--max-rank", "4")
    assert code == 0
    lines = json_lines(out)
    verdict = lines[-1]
    assert verdict["kind"] == "verdict"
    assert verdict["holds"] is True
    assert verdict["counterexamples"] == []
    instances = [l for l in lines if l["kind"] == "instance"]
    assert len(instances) == verdict["instances"]


def test_verify_quiet(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma4", "--max-rank", "1", "--quiet")
    assert code == 0
    lines = json_lines(out)
    assert [l["kind"] for l in lines] == ["header", "verdict"]
    assert lines[-1]["instances"] == 0


def test_verify_capacity_exit_three(capsys):
    code, out, _ = run_cli(capsys, "verify", "lemma4", "--max-rank", "9")
    assert code == 3
    assert out == ""


def test_verify_isometry_budget_exits_three(capsys, monkeypatch):
    monkeypatch.setattr(cmkit.lattice, "_ISOMETRY_NODE_BUDGET", 1)
    code, _, err = run_cli(capsys, "verify", "lemma5", "--max-rank", "4")
    assert code == 3
    assert "budget of 1 nodes" in err


def test_verify_negative_rank_exits_two(capsys):
    code, out, err = run_cli(capsys, "verify", "lemma4", "--max-rank", "-1")
    assert code == 2
    assert out == ""
    assert "max rank must be >= 0" in err


def test_verify_rejects_unknown_claim(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma6", "--max-rank", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("census", "--max-rank", "11"), 3),  # capacity
        (("torsion", "1", "3"), 2),  # bad input
        (("census", "--max-rank", "7"), 3),  # past the measured census rank
    ],
)
def test_refused_request_leaves_out_file_untouched(tmp_path, capsys, argv, exit_code):
    target = tmp_path / "kept.txt"
    target.write_text("earlier output\n")
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == exit_code
    assert out == ""
    assert target.read_text() == "earlier output\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "lemma5", "--max-rank", "2", "--format", "csv"),
        ("cf", "9", "2", "--quiet"),
        ("gram", "1", "2", "--quiet"),
        ("torsion", "1", "2", "--quiet"),
    ],
)
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


_IMPORT_PROBE = """
import contextlib, io, json, sys
import cmkit
from cmkit import cli
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv.split()) for argv in json.loads(sys.argv[1])]
    before = "numpy" in sys.modules
    codes.append(cli.main(["torsion", "1", "2", "2"]))
print(json.dumps([codes, before, "numpy" in sys.modules]))
"""


def test_numpy_loads_only_with_the_first_staircase():
    """Start-up and the commands that build no staircase leave numpy
    unimported; the first staircase imports it."""
    argvs = [
        "cf 9 2",
        "gram 1 1 2",
        "gram --linear 7 5",
        "verify lemma4 --max-rank 7 --quiet",
        "verify lemma5 --max-rank 8",
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cmkit.__file__).resolve().parent.parent))
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == [[0] * 6, False, True]
