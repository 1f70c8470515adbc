import argparse
import csv
import inspect
import io
import json

import jsonschema
import pytest

import bmetric.embed
from bmetric import (
    SemimetricSpace,
    bmetric_assouad_pipeline,
    cli,
    converse_bound,
    epsilon_remetrize,
    example31,
    random_bmetric,
    snowflaked_grid,
    weak_doubling_constant,
)
from bmetric.certify import CertificateViolation
from bmetric.schema import load_schema
from bmetric.spaces import FAMILIES
from cli_runner import EXIT_ONE_PREFIXES, run_cli
from test_report_digests import INPUTS as DIGEST_INPUTS


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    for args in (
        ("generate", "--family", "example31", "--n", "5",
         "--space-out", str(d / "ex31.json"), "--quiet"),
        ("generate", "--family", "random-bmetric", "--n", "10", "--K", "2", "--seed", "7",
         "--space-out", str(d / "rb.json"), "--quiet"),
        ("generate", "--family", "random-bmetric", "--n", "8", "--K", "3", "--seed", "1",
         "--space-out", str(d / "rb3.json"), "--quiet"),
        ("generate", "--family", "snowflaked-grid", "--k", "4", "--p", "1.0",
         "--space-out", str(d / "grid.json"), "--quiet"),
    ):
        assert run_cli(*args).returncode == 0
    (d / "broken.json").write_text('{"labels": ["a", "b"], "matrix": [[0, 1], [2, 0]]}')
    for name, bad in (("nan.json", "NaN"), ("inf.json", "Infinity")):
        (d / name).write_text('{"labels": ["a", "b", "c"], '
                              f'"matrix": [[0, 1, {bad}], [1, 0, 1], [{bad}, 1, 0]]}}')
    (d / "labels_str.json").write_text('{"labels": "ab", "matrix": [[0, 1], [1, 0]]}')
    (d / "labels_obj.json").write_text('{"labels": {"a": 0, "b": 1}, "matrix": [[0, 1], [1, 0]]}')
    (d / "ragged.json").write_text('{"labels": ["a", "b"], "matrix": [[0, 1], [1]]}')
    (d / "ragged.csv").write_text("a,b\n0,1\n1\n")
    for name, labels, matrix in (
        ("labels_num.json", "[1, 2]", "[[0, 1], [1, 0]]"),
        ("labels_null.json", '["a", null]', "[[0, 1], [1, 0]]"),
        ("entry_str.json", '["a", "b"]', '[[0, "1.5"], ["1.5", 0]]'),
        ("entry_bool.json", '["a", "b"]', "[[0, true], [true, 0]]"),
        ("entry_null.json", '["a", "b"]', "[[0, null], [null, 0]]"),
    ):
        (d / name).write_text(f'{{"labels": {labels}, "matrix": {matrix}}}')
    return d


# Three points with pairwise distances d01, d02, d12, near the ends of the
# float range.
EDGE_SPACES = {
    "eq-1e-300": (1e-300,) * 3,
    "eq-1e-250": (1e-250,) * 3,
    "eq-1e-200": (1e-200,) * 3,
    "eq-1e200": (1e200,) * 3,
    "eq-1e206": (1e206,) * 3,
    "eq-1e300": (1e300,) * 3,
    "eq-1.7e308": (1.7e308,) * 3,
    "tiny-pair": (1e-300, 1e300, 1e300),
}
EMBED_COMMANDS = (("embed", "--alpha", "0.75"), ("pipeline", "--alpha", "0.75"),
                  ("verify", "--theorem", "3.5"), ("verify", "--theorem", "4.1"))


@pytest.fixture(scope="module")
def edges(tmp_path_factory):
    d = tmp_path_factory.mktemp("edges")
    for name, (a, b, c) in EDGE_SPACES.items():
        matrix = [[0.0, a, b], [a, 0.0, c], [b, c, 0.0]]
        (d / f"{name}.json").write_text(json.dumps({"labels": ["x", "y", "z"], "matrix": matrix}))
    # the construction gives points (2, 6) equal coordinates at this scale only
    (d / "grid-1e90.json").write_text(snowflaked_grid(3, 0.5).rescale(1e90).to_json())
    return d


# One flag per claim that the claim does not read.
UNREAD_FLAGS = (
    ("2.1", "--eps", "0.5"),
    ("2.2", "--alpha", "0.5"),
    ("3.3", "--alpha", "nan"),
    ("3.4", "--alpha", "nan"),
    ("3.5", "--p", "0.5"),
    ("4.1", "--exact-max", "4"),
    ("4.3", "--eps", "0.5"),
)

# One flag per family that the family does not read, after the flags it needs.
UNREAD_GENERATE_FLAGS = (
    ("snowflaked-grid", ("--k", "3"), "--n", "50"),
    ("example31", ("--n", "4"), "--seed", "9"),
    ("random-bmetric", ("--n", "5", "--K", "2"), "--dim", "2"),
    ("euclidean-points", ("--n", "5"), "--K", "2"),
    ("doubling-not-weak", ("--n", "3", "--m", "4"), "--p", "0.5"),
)


class TestGenerate:
    def test_example31_file(self, workdir):
        obj = json.loads((workdir / "ex31.json").read_text())
        jsonschema.validate(obj, load_schema("space"))
        assert len(obj["labels"]) == 11

    def test_csv_format(self, workdir):
        out = workdir / "grid.csv"
        r = run_cli("generate", "--family", "snowflaked-grid", "--k", "4", "--p", "0.5",
                    "--space-out", str(out), "--quiet")
        assert r.returncode == 0
        # grid labels contain commas, so the CSV writer quotes them
        assert out.read_text().splitlines()[0].startswith('"0,0","0,1"')

    def test_format_flag_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        argv = ["generate", "--family", "example31", "--n", "3", "--format", "csv",
                "--space-out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("usage:")
        assert not out.exists()

    def test_validated_on_write(self, workdir):
        r = run_cli("generate", "--family", "random-bmetric", "--n", "3", "--K", "0.2",
                    "--space-out", str(workdir / "nope.json"))
        assert r.returncode == 1
        assert r.stderr.startswith(EXIT_ONE_PREFIXES), r.stderr

    def test_flags_are_the_generator_parameters(self):
        generate = cli.build_parser()._subparsers._group_actions[0].choices["generate"]
        actions = {a.dest: a for a in generate._actions}
        assert actions["family"].choices == tuple(FAMILIES)
        params = {name for make in FAMILIES.values() for name in inspect.signature(make).parameters}
        flags = set(actions) - {"help", "family", "space_out", "out", "quiet"}
        assert flags == params == set(cli.GENERATE_FLAGS)

    @pytest.mark.parametrize("family,needed,flag,value", UNREAD_GENERATE_FLAGS)
    def test_unread_flag_is_rejected_before_writing(self, tmp_path, capsys, family, needed, flag,
                                                     value):
        out = tmp_path / "space.json"
        argv = ["generate", "--family", family, *needed, flag, value, "--space-out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: --family {family} does not read {flag}\n"
        assert not out.exists()

    def test_missing_parameter_is_named(self, tmp_path, capsys):
        out = tmp_path / "space.json"
        argv = ["generate", "--family", "doubling-not-weak", "--n", "3", "--space-out", str(out)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: family 'doubling-not-weak' is missing parameter 'm'\n")
        assert not out.exists()


def test_unknown_schema_is_a_key_error():
    with pytest.raises(KeyError, match="unknown schema 'nope'"):
        load_schema("nope")


class TestReports:
    @pytest.mark.parametrize(
        "schema,args",
        [
            ("constants", ("constants", "ex31.json")),
            ("remetrize", ("remetrize", "rb.json", "--eps", "0.5")),
            ("remetrize", ("remetrize", "rb.json")),
            ("doubling", ("doubling", "ex31.json", "--exact-max", "11", "--weak")),
            ("embed", ("embed", "grid.json", "--alpha", "0.75")),
            ("pipeline", ("pipeline", "rb3.json", "--alpha", "0.75")),
            ("verify", ("verify", "rb.json", "--theorem", "4.3")),
        ],
    )
    def test_report_matches_schema(self, workdir, schema, args):
        r = run_cli(*args, cwd=workdir)
        assert r.returncode == 0, r.stderr
        jsonschema.validate(json.loads(r.stdout), load_schema(schema))

    def test_reports_are_reproducible(self, workdir):
        for args in (("constants", "rb.json"), ("pipeline", "rb3.json", "--alpha", "0.6")):
            first = run_cli(*args, cwd=workdir)
            second = run_cli(*args, cwd=workdir)
            assert first.returncode == second.returncode == 0, (args, first.stderr)
            assert first.stdout == second.stdout and first.stdout

    def test_generated_files_are_reproducible(self, workdir):
        p1, p2 = workdir / "r1.json", workdir / "r2.json"
        for p in (p1, p2):
            run_cli("generate", "--family", "euclidean-points", "--n", "6", "--dim", "2",
                    "--seed", "42", "--space-out", str(p), "--quiet")
        assert p1.read_bytes() == p2.read_bytes()

    def test_generate_manifest_records_the_family_defaults(self, tmp_path, capsys):
        def manifest(*flags):
            out = str(tmp_path / "space.json")
            assert cli.main(["generate", *flags, "--space-out", out]) == 0
            return json.loads(capsys.readouterr().out)["manifest"]

        default = manifest("--family", "random-bmetric", "--n", "5", "--K", "2")
        assert default == manifest("--family", "random-bmetric", "--n", "5", "--K", "2",
                                   "--seed", "0")
        assert default["parameters"] == {"n": 5, "K": 2.0, "seed": 0} and default["seed"] == 0
        euclidean = manifest("--family", "euclidean-points", "--n", "4")
        assert euclidean["parameters"] == {"n": 4, "dim": 2, "seed": 0}
        assert manifest("--family", "snowflaked-grid", "--k", "3")["parameters"] == \
            {"k": 3, "p": 1.0}

    def test_out_flag_writes_file(self, workdir):
        out = workdir / "report.json"
        r = run_cli("constants", "ex31.json", "--out", str(out), "--quiet", cwd=workdir)
        assert r.returncode == 0 and r.stdout == ""
        jsonschema.validate(json.loads(out.read_text()), load_schema("constants"))


class TestExitCodes:
    def test_matrix(self, workdir):
        cases = [
            (("constants", "ex31.json"), 0),
            (("verify", "rb.json", "--theorem", "2.1"), 0),
            (("verify", "rb3.json", "--theorem", "2.1"), 1),  # K > 2 precondition
            (("verify", "rb.json", "--theorem", "2.2", "--eps", "0.5"), 0),
            (("verify", "ex31.json", "--theorem", "3.3", "--p", "0.5", "--exact-max", "11"), 0),
            (("verify", "rb3.json", "--theorem", "3.5"), 0),
            (("verify", "rb3.json", "--theorem", "4.1"), 0),
            (("embed", "rb.json", "--alpha", "0.75"), 1),  # non-metric input
            (("constants", "missing.json"), 1),
            (("constants", "broken.json"), 1),  # asymmetric matrix
            (("constants", "nan.json"), 1),  # non-finite distances fail validation
            (("verify", "nan.json", "--theorem", "4.3"), 1),
            (("pipeline", "inf.json", "--alpha", "0.75"), 1),
            (("doubling", "rb.json", "--weak", "--exact-max", "1"), 0),  # weak does not read it
            # a bound C^ceil(1/p) past the largest float
            (("verify", "rb.json", "--theorem", "3.3", "--p", "0.0001"), 1),
            (("verify", "rb.json", "--theorem", "3.3", "--p", "1e-320"), 1),
            # NaN and infinite numeric parameters
            (("remetrize", "rb.json", "--eps", "nan"), 1),
            (("remetrize", "rb.json", "--eps", "inf"), 1),
            (("verify", "rb.json", "--theorem", "2.2", "--eps", "nan"), 1),
            (("embed", "grid.json", "--alpha", "0.5", "--tau", "0.5"), 1),  # no such flag
            (("generate", "--family", "snowflaked-grid", "--k", "3", "--p", "nan",
              "--space-out", "bad.json"), 1),
            (("generate", "--family", "random-bmetric", "--n", "5", "--K", "nan",
              "--space-out", "bad.json"), 1),
            (("generate", "--family", "random-bmetric", "--n", "5", "--K", "inf",
              "--space-out", "bad.json"), 1),
            (("generate", "--family", "no-such-family", "--space-out", "bad.json"), 1),
            (("generate", "--family", "doubling-not-weak", "--n", "3",
              "--space-out", "bad.json"), 1),  # --m is required
            # a flag the chosen family does not read
            *((("generate", "--family", family, *needed, flag, value, "--space-out", "bad.json"), 1)
              for family, needed, flag, value in UNREAD_GENERATE_FLAGS),
            # malformed space files
            (("constants", "labels_str.json"), 1),
            (("constants", "labels_obj.json"), 1),
            (("constants", "ragged.json"), 1),
            (("constants", "ragged.csv"), 1),
            (("constants", "labels_num.json"), 1),
            (("constants", "labels_null.json"), 1),
            (("constants", "entry_str.json"), 1),
            (("constants", "entry_bool.json"), 1),
            (("constants", "entry_null.json"), 1),
            # a flag the chosen claim does not read
            *((("verify", "rb.json", "--theorem", theorem, flag, value), 1)
              for theorem, flag, value in UNREAD_FLAGS),
        ]
        for args, expected in cases:
            r = run_cli(*args, "--quiet", cwd=workdir)
            assert r.returncode == expected, (args, r.returncode, r.stderr)
            if expected == 1:
                assert r.stderr.startswith(EXIT_ONE_PREFIXES), (args, r.stderr)

    def test_usage_error_is_one_not_two(self):
        for args in (("constants",), ("frobnicate",), ("constants", "ex31.json", "--format", "csv")):
            r = run_cli(*args)
            assert r.returncode == 1, (args, r.stderr)
            assert r.stderr.startswith("usage:"), (args, r.stderr)

    def test_nonmetric_embed_names_constant(self, workdir):
        r = run_cli("embed", "rb.json", "--alpha", "0.75", cwd=workdir)
        assert "relaxation constant" in r.stderr

    def test_frink_precondition_names_constant(self, workdir):
        r = run_cli("verify", "rb3.json", "--theorem", "2.1", cwd=workdir)
        assert "found 2." in r.stderr

    def test_nonfinite_input_names_pair(self, workdir):
        r = run_cli("constants", "inf.json", cwd=workdir)
        assert r.stderr == "error: input is not a semimetric space (witness pair (0, 2))\n"

    @pytest.mark.parametrize("name", sorted(DIGEST_INPUTS))
    def test_weak_report_ignores_exact_max(self, tmp_path, capsys, name):
        path = str(tmp_path / "space.json")
        assert cli.main(["generate", *DIGEST_INPUTS[name], "--space-out", path, "--quiet"]) == 0
        expected = json.loads(json.dumps(weak_doubling_constant(cli._read_space(path)).to_dict()))
        for limit in (-3, 0, 1, 2, 6, 15, 40):
            assert cli.main(["doubling", path, "--weak", "--exact-max", str(limit)]) == 0
            assert json.loads(capsys.readouterr().out)["report"]["weak"] == expected, limit

    @pytest.mark.parametrize("space", [
        random_bmetric(13, 2.0, seed=3), random_bmetric(9, 2.0, seed=0), example31(8),
    ], ids=["bmetric-13", "bmetric-9", "example31-17"])
    def test_weak_report_is_the_library_default(self, tmp_path, capsys, space):
        path = tmp_path / "space.json"
        path.write_text(space.to_json())
        assert cli.main(["doubling", str(path), "--weak"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["weak"] == json.loads(json.dumps(weak_doubling_constant(space).to_dict()))

    def test_weak_help_names_its_exact_limit(self, capsys):
        assert cli.main(["doubling", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        weak = text[text.index("--weak also"):]
        assert "exact when the space has at most 20 points" in weak
        assert "--exact-max" not in weak and "(--weak does not read it)" in text

    def test_verify_help_names_its_exact_limit(self, capsys):
        assert cli.main(["verify", "--help"]) == 0
        assert ("exact-cover limit of both doubling constants in --theorem 3.3 and 3.4"
                in " ".join(capsys.readouterr().out.split()))


class TestVerifyTable:
    def test_table_covers_every_claim(self):
        from test_report_digests import COMMANDS

        verify = cli.build_parser()._subparsers._group_actions[0].choices["verify"]
        choices = next(a.choices for a in verify._actions if a.dest == "theorem")
        digested = {argv[2] for argv in COMMANDS if argv[0] == "verify"}
        assert set(cli.THEOREMS) == set(choices) == digested

    def test_manifest_records_every_flag_the_claim_reads(self, workdir, capsys):
        def payload(*flags):
            assert cli.main(["verify", str(workdir / "rb.json"), "--theorem", "3.3", *flags]) == 0
            return json.loads(capsys.readouterr().out)

        default = payload()
        assert default["manifest"]["parameters"] == {"theorem": "3.3", "p": 0.5, "exact_max": 15}
        assert payload("--p", "0.5") == payload("--exact-max", "15") == default
        assert payload("--p", "0.25")["manifest"]["parameters"] == \
            {"theorem": "3.3", "p": 0.25, "exact_max": 15}
        assert payload("--exact-max", "4")["manifest"]["parameters"] == \
            {"theorem": "3.3", "p": 0.5, "exact_max": 4}

    def test_every_flag_is_read_by_some_claim(self):
        read = {name for check in cli.THEOREMS.values() for name in check.__kwdefaults__ or {}}
        assert read == set(cli.VERIFY_FLAGS)

    @pytest.mark.parametrize("theorem,flag,value", UNREAD_FLAGS)
    def test_unread_flag_is_rejected_before_the_input_is_read(self, capsys, theorem, flag,
                                                              value):
        argv = ["verify", "missing.json", "--theorem", theorem, flag, value]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: --theorem {theorem} does not read {flag}\n"


class TestFloatRangeEdges:
    """Where the embedding's scale radii or doubling's critical radii would
    overflow, the CLI exits 1 with an error line: neither is a certified
    violation.  Norms whose sums of squares leave the float range are still
    certified."""

    @pytest.mark.parametrize("argv", EMBED_COMMANDS, ids=" ".join)
    def test_embedding_out_of_range_is_an_error(self, edges, capsys, argv):
        assert cli.main([argv[0], str(edges / "eq-1.7e308.json"), *argv[1:], "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", EMBED_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("name", ["eq-1e-300", "eq-1e-250", "eq-1e-200", "eq-1e200",
                                      "eq-1e206", "eq-1e300", "tiny-pair"])
    def test_embedding_in_range_is_certified(self, edges, capsys, argv, name):
        assert cli.main([argv[0], str(edges / f"{name}.json"), *argv[1:]]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report.get("holds", True) is True  # the verify claims
        C = report["C_emp"] if "C_emp" in report else report.get("embedding", report)["C"]
        assert 1.0 <= C < float("inf")

    @pytest.mark.parametrize("argv", [("doubling",), ("doubling", "--weak"),
                                      ("verify", "--theorem", "3.3"),
                                      ("verify", "--theorem", "3.4")], ids=" ".join)
    def test_doubling_past_a_quarter_of_the_largest_float_is_an_error(self, edges, capsys, argv):
        # an overflowed breakpoint would make 3.3 a false violation here
        assert cli.main([argv[0], str(edges / "eq-1.7e308.json"), *argv[1:], "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: doubling needs a diameter of at most")

    @pytest.mark.parametrize("argv", EMBED_COMMANDS, ids=" ".join)
    def test_collapsed_points_are_an_error(self, edges, capsys, argv):
        # a construction that fails to separate two points falsifies no bound
        assert cli.main([argv[0], str(edges / "grid-1e90.json"), *argv[1:], "--quiet"]) == 1
        assert capsys.readouterr().err == "error: embedding degenerate: points (2, 6) collide\n"

    @pytest.mark.parametrize("alpha,code", [("0.001", 1), ("0.01", 0)])
    def test_converse_bound_past_the_largest_float_is_an_error(self, workdir, capsys, alpha,
                                                               code):
        argv = ["verify", str(workdir / "rb3.json"), "--theorem", "4.1", "--alpha", alpha]
        assert cli.main([*argv, "--quiet"]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: bound 2^(1/") if code else err == ""

    def test_scale_overflow_is_not_a_traceback(self, edges):
        r = run_cli("embed", str(edges / "eq-1.7e308.json"), "--alpha", "0.75", "--quiet")
        assert r.returncode == 1
        assert r.stderr == "error: scale radius 0.3333333333333333^-647 is too large for a float\n"


class TestRemetrizationCertificate:
    """A closure that breaks D <= d^p is a certified violation (exit 2)."""

    FINDING = "remetrization sandwich violated: D > d^p at pair (0, 1)"

    @pytest.mark.parametrize("argv", [("remetrize",), ("remetrize", "--eps", "0.5"),
                                      ("pipeline", "--alpha", "0.75")])
    def test_command_exits_two(self, workdir, capsys, inflated_closure, argv):
        assert cli.main([argv[0], str(workdir / "rb.json"), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"falsification finding: {self.FINDING}\n"

    @pytest.mark.parametrize("theorem", ["2.2", "4.3"])
    def test_verify_reports_violation(self, workdir, capsys, inflated_closure, theorem):
        assert cli.main(["verify", str(workdir / "rb.json"), "--theorem", theorem]) == 2
        report = json.loads(capsys.readouterr().out)["report"]
        assert report == {"theorem": theorem, "holds": False, "detail": self.FINDING}


class TestConverseReusesCertifiedNorms:
    @pytest.mark.parametrize("name", ["rb.json", "rb3.json"])
    def test_report_matches_fresh_norms(self, workdir, capsys, name):
        assert cli.main(["verify", str(workdir / name), "--theorem", "4.1"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        space = SemimetricSpace.from_json((workdir / name).read_text())
        result = bmetric_assouad_pipeline(space, 0.75)
        rep = converse_bound(space, result.embedding.pairwise_norms(), result.alpha_prime)
        assert report == {"theorem": "4.1", "holds": rep.holds, **rep.to_dict()}

    def test_two_norm_passes(self, workdir, monkeypatch):
        # one in the embedding, one in its certificate; the converse reuses the latter
        calls = []
        norms = bmetric.embed._pairwise_norms
        monkeypatch.setattr(bmetric.embed, "_pairwise_norms",
                            lambda coords: calls.append(1) or norms(coords))
        assert cli.main(["verify", str(workdir / "rb3.json"), "--theorem", "4.1", "--quiet"]) == 0
        assert len(calls) == 2


class TestViolationContract:
    """Exit 2 means a certified violation, never an internal error (in-process)."""

    def _raise(self, monkeypatch, name, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, name, fail)

    def test_internal_assertion_is_not_a_finding(self, workdir, monkeypatch):
        self._raise(monkeypatch, "constants_report", AssertionError("internal bug"))
        with pytest.raises(AssertionError):
            cli.main(["constants", str(workdir / "ex31.json"), "--quiet"])

    def test_certificate_violation_exits_two(self, workdir, monkeypatch, capsys):
        self._raise(monkeypatch, "bmetric_assouad_pipeline", CertificateViolation("C' > bound"))
        assert cli.main(["pipeline", str(workdir / "rb3.json"), "--alpha", "0.75"]) == 2
        assert capsys.readouterr().err.startswith("falsification finding")

    def test_verify_reports_violation(self, workdir, monkeypatch, capsys):
        self._raise(monkeypatch, "bmetric_assouad_pipeline", CertificateViolation("C' > bound"))
        assert cli.main(["verify", str(workdir / "rb3.json"), "--theorem", "3.5"]) == 2
        report = json.loads(capsys.readouterr().out)["report"]
        assert report == {"theorem": "3.5", "holds": False, "detail": "C' > bound"}

    @pytest.mark.parametrize("exc, line", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 7.45 GiB for an array"),
         "error: out of memory (Unable to allocate 7.45 GiB for an array)\n"),
    ])
    def test_memory_error_exits_one(self, workdir, monkeypatch, capsys, exc, line):
        self._raise(monkeypatch, "epsilon_remetrize", exc)
        assert cli.main(["remetrize", str(workdir / "rb.json"), "--eps", "0.5"]) == 1
        assert capsys.readouterr() == ("", line)

    def test_undecided_doubling_brackets_exit_one(self, tmp_path, capsys):
        # both constants are exactly 10, but at the default limit each is
        # the bracket [10, 11], which neither proves nor refutes C(d^1) <= C(d)
        path = str(tmp_path / "rb40.json")
        assert cli.main(["generate", "--family", "random-bmetric", "--n", "40", "--K", "2",
                         "--seed", "3", "--space-out", path, "--quiet"]) == 0
        argv = ["verify", path, "--theorem", "3.3", "--p", "1"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: doubling brackets decide nothing: transformed [10, 11] against base "
            "[10, 11] to the power 1; a larger --exact-max solves more covers exactly\n")
        assert cli.main([*argv, "--exact-max", "40"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["holds"] is True and report["base"] == report["transformed"] == [10, 10]


class TestSpaceFilesAreReadBack:
    """A space file's format is its extension, for writing and reading alike."""

    def test_generated_and_remetrized_files(self, tmp_path, capsys):
        for ext in ("json", "csv"):
            assert cli.main(["generate", "--family", "random-bmetric", "--n", "12", "--K", "2",
                             "--seed", "1", "--space-out", str(tmp_path / f"s.{ext}"),
                             "--quiet"]) == 0
            assert cli.main(["remetrize", str(tmp_path / "s.json"), "--eps", "0.5",
                             "--matrix-out", str(tmp_path / f"m.{ext}"), "--quiet"]) == 0
        reports = {}
        for name in ("s.json", "s.csv", "m.json", "m.csv"):
            assert cli.main(["constants", str(tmp_path / name)]) == 0, name
            reports[name] = json.loads(capsys.readouterr().out)["report"]
        # %.17g round-trips every float, so CSV and JSON give the same space
        assert reports["s.csv"] == reports["s.json"]
        assert reports["m.csv"] == reports["m.json"]

    @pytest.mark.parametrize("family,sizes", [
        ("example31", [(1,), (4,)]),
        ("doubling-not-weak", [(1, 2), (3, 4)]),
        ("random-bmetric", [(1, 2.0), (7, 2.0)]),
        ("snowflaked-grid", [(1,), (3, 0.5)]),
        ("euclidean-points", [(1,), (7, 3)]),
    ])
    def test_json_file_is_to_json(self, tmp_path, family, sizes):
        # written as it is encoded, row by row, yet the bytes of to_json()
        for space in (FAMILIES[family](*args) for args in sizes):
            cli._write_space(space, str(tmp_path / "s.json"))
            assert (tmp_path / "s.json").read_bytes() == (space.to_json() + "\n").encode()


class TestMatrixOut:
    def test_remetrize_writes_metric_matrix(self, workdir):
        out = workdir / "D.json"
        r = run_cli("remetrize", "rb.json", "--eps", "1.0", "--matrix-out", str(out),
                    "--quiet", cwd=workdir)
        assert r.returncode == 0
        obj = json.loads(out.read_text())
        jsonschema.validate(obj, load_schema("space"))

    def test_embed_writes_coords(self, workdir):
        out = workdir / "coords.csv"
        r = run_cli("embed", "grid.json", "--alpha", "0.75", "--coords-out", str(out),
                    cwd=workdir)
        assert r.returncode == 0
        N = json.loads(r.stdout)["report"]["N"]
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["label"] + [f"x{i + 1}" for i in range(N)]
        # the grid's labels ("0,0", ...) hold commas, so they must come back quoted
        assert all(len(row) == N + 1 for row in rows)
        space = SemimetricSpace.from_json((workdir / "grid.json").read_text())
        assert [row[0] for row in rows[1:]] == list(space.labels)


AWKWARD_LABELS = ('say "hi"', "back\\slash", "café", "two\nlines")
EDGE_FLOATS = (-0.0, 5e-324, 1.7e308)
EMIT_PAYLOADS = {
    "remetrize": {
        "manifest": cli._manifest(argparse.Namespace(in_path="rb.json", out="r.json"),
                                  "remetrize", {"eps": 0.5}),
        "report": epsilon_remetrize(random_bmetric(8, 2.0, seed=0), 0.5).to_dict(),
    },
    "nested": {"b": {"d": [1, {"f": None, "e": True}], "c": {}}, "a": [[], [2.5, "x", []]]},
    "edge-floats": {"report": {"values": list(EDGE_FLOATS), "max": {"x": EDGE_FLOATS[-1]}}},
    "labels": {"labels": list(AWKWARD_LABELS), **{label: label for label in AWKWARD_LABELS}},
}


class TestWritersAreByteIdentical:
    """Reports and space files are encoded straight into their file or stream,
    as the bytes of the whole-document `json.dumps`."""

    @pytest.mark.parametrize("name", sorted(EMIT_PAYLOADS))
    def test_out_file(self, tmp_path, capsys, name):
        payload, out = EMIT_PAYLOADS[name], tmp_path / "report.json"
        cli._emit(argparse.Namespace(out=str(out), quiet=False), payload)
        assert out.read_bytes() == (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
        assert capsys.readouterr().out == f"{out}\n"

    @pytest.mark.parametrize("name", sorted(EMIT_PAYLOADS))
    def test_stdout(self, capsys, name):
        payload = EMIT_PAYLOADS[name]
        cli._emit(argparse.Namespace(out=None, quiet=False), payload)
        assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_space_files(self, tmp_path):
        generated, matrix = tmp_path / "rb.json", tmp_path / "D.json"
        assert cli.main(["generate", "--family", "random-bmetric", "--n", "9", "--K", "2",
                         "--space-out", str(generated), "--quiet"]) == 0
        assert cli.main(["remetrize", str(generated), "--eps", "0.5",
                         "--matrix-out", str(matrix), "--quiet"]) == 0
        space = random_bmetric(9, 2.0)
        for path, dist in ((generated, space.dist), (matrix, epsilon_remetrize(space, 0.5).D)):
            expected = json.dumps({"labels": list(space.labels), "matrix": dist.tolist()}) + "\n"
            assert path.read_bytes() == expected.encode()


class TestParserIsBuiltOnce:
    def test_second_main_builds_no_parser(self, workdir, monkeypatch):
        argv = ["constants", str(workdir / "ex31.json"), "--quiet"]
        assert cli.main(argv) == 0
        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        assert cli.main(argv) == 0
        assert built == []

    def test_each_parse_starts_from_the_defaults(self, workdir):
        parser, path = cli.build_parser(), str(workdir / "ex31.json")
        first = parser.parse_args(["doubling", path, "--weak", "--exact-max", "4"])
        second = parser.parse_args(["doubling", path])
        assert (first.weak, first.exact_max) == (True, 4)
        assert vars(second) == vars(cli.build_parser.__wrapped__().parse_args(["doubling", path]))
        assert (second.weak, second.exact_max) == (False, cli.DOUBLING_EXACT_LIMIT)
