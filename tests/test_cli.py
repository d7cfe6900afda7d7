import hashlib
import json

import pytest

import cmkit.torsion
from cmkit.cli import main


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
    # p = 357,913,942: the cost cap n+1 + 8p is past the DP's int32 limit
    # of 2^30, so the command must stop before any residue table exists.
    monkeypatch.setattr(
        cmkit.torsion, "_min_costs", lambda *args: pytest.fail("DP ran past the limit")
    )
    sigma = (1, 1, *(2**k for k in range(1, 15)))
    code, out, err = run_cli(capsys, "torsion", *map(str, sigma))
    assert code == 3
    assert out == ""
    assert "int32 staircase limit" in err


def test_torsion_past_p_capacity_exits_three(capsys, monkeypatch):
    # just past STAIRCASE_MAX_P, far inside the int32 limit: refused before
    # any residue table exists
    monkeypatch.setattr(
        cmkit.torsion, "_min_costs", lambda *args: pytest.fail("DP ran past the capacity")
    )
    sigma = (*(2**k for k in range(10)), 908, 909)
    assert sum(v * v for v in sigma) == cmkit.torsion.STAIRCASE_MAX_P + 270
    code, out, err = run_cli(capsys, "torsion", *map(str, sigma))
    assert code == 3
    assert out == ""
    assert "staircase capacity" in err


def test_torsion_past_work_capacity_exits_three(capsys, monkeypatch):
    # rank 30, inside STAIRCASE_MAX_P: its DP took 129 s, and the work
    # estimate refuses it before any residue table exists
    monkeypatch.setattr(
        cmkit.torsion, "_min_costs", lambda *args: pytest.fail("DP ran past the capacity")
    )
    sigma = (1, 1, *(2**k for k in range(1, 9)), *(300,) * 21)
    assert sum(v * v for v in sigma) == 1_977_382 < cmkit.torsion.STAIRCASE_MAX_P
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
# 4,267 to 87,381, recorded from the residue-only DP before the integer-sum
# window and its fold were added; every one of them folds before its last
# coordinate.
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


def test_verify_negative_rank_exits_two(capsys):
    code, out, err = run_cli(capsys, "verify", "lemma4", "--max-rank", "-1")
    assert code == 2
    assert out == ""
    assert "max rank must be >= 0" in err


def test_verify_rejects_unknown_claim(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemma6", "--max-rank", "3"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
