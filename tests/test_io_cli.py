import hashlib
import json
import random
from itertools import product

import pytest

from hcpack import (
    Config, Point, PointSet, cli, errors, general, generate, instances, pack_convex,
    pack_general_detailed, render_svg,
)
from hcpack.cli import main
from hcpack.errors import DegenerateInput, HcpackError, InvalidN, PackingIncomplete, TooLarge
from hcpack.geometry import in_general_position
from hcpack.instances import InstanceFile, PackingFile, _require_integers


def test_generate_convex_order_is_hull_order():
    inst = generate(Config.CONVEX, 12, seed=3)
    ps = inst.to_point_set()  # PointSet validation enforces ccw hull order
    assert len(ps) == 12 and ps.config is Config.CONVEX


def test_generate_wheel_shape():
    inst = generate(Config.WHEEL, 14, seed=0)
    assert inst.center_index == 13
    ps = inst.to_point_set()
    assert len(ps.rim_order()) == 13


def test_generate_general_position():
    inst = generate(Config.GENERAL, 17, seed=7)
    ps = inst.to_point_set()  # raises if degenerate
    assert len(ps) == 17


def _counting_post_init(monkeypatch):
    """The lengths of the point sets validated from now on."""
    built = []
    post_init = PointSet.__post_init__

    def counted(self):
        built.append(len(self.points))
        post_init(self)

    monkeypatch.setattr(PointSet, "__post_init__", counted)
    return built


@pytest.mark.parametrize("config, n", [(Config.CONVEX, 160), (Config.WHEEL, 40)])
def test_generated_ring_is_validated_once(monkeypatch, config, n):
    """`to_point_set` hands back the PointSet `generate` accepted, until the
    points, config or center change."""
    for seed in (1, 2):
        built = _counting_post_init(monkeypatch)
        inst = generate(config, n, seed)
        ps = inst.to_point_set()
        assert built == [n] and inst.to_point_set() is ps
        assert ps == PointSet(tuple(Point(x, y) for x, y in inst.points), config, inst.center_index)
        monkeypatch.undo()
    inst = generate(config, n, 1)
    inst.points[0] = inst.points[0]
    assert inst.to_point_set() is inst.to_point_set()
    inst.points[0] = (inst.points[0][0] + 1, inst.points[0][1])
    built = _counting_post_init(monkeypatch)
    inst.to_point_set()
    assert built == [n]


@pytest.mark.parametrize("config, n", [(Config.CONVEX, 12), (Config.WHEEL, 14)])
def test_generated_instance_edited_to_degenerate_points_is_refused(config, n):
    inst = generate(config, n, 3)
    inst.to_point_set()
    inst.points[2] = inst.points[1]  # a duplicate
    with pytest.raises(DegenerateInput):
        inst.to_point_set()
    inst = generate(config, n, 3)
    inst.points = inst.points[::-1]  # clockwise
    with pytest.raises(DegenerateInput):
        inst.to_point_set()
    inst = generate(config, n, 3)
    inst.config = Config.WHEEL.value if config is Config.CONVEX else Config.CONVEX.value
    with pytest.raises(HcpackError):
        inst.to_point_set()


def test_generate_rejects_bad_n():
    with pytest.raises(InvalidN):
        generate(Config.WHEEL, 13, seed=0)
    with pytest.raises(InvalidN):
        generate(Config.CONVEX, 2, seed=0)
    with pytest.raises(InvalidN, match="general instances need n >= 3"):
        generate(Config.GENERAL, 2, seed=0)


def test_generate_deterministic():
    a = generate(Config.GENERAL, 9, seed=5)
    b = generate(Config.GENERAL, 9, seed=5)
    assert a.points == b.points and a.digest() == b.digest()


@pytest.mark.parametrize("config, n", [(Config.CONVEX, 9), (Config.WHEEL, 10), (Config.GENERAL, 9)])
def test_seedless_draws_are_reproducible(config, n):
    # a missing seed draws and is recorded as seed 0 for every configuration
    a, b = generate(config, n), generate(config, n)
    assert a.digest() == b.digest()
    twin = generate(config, n, seed=0)
    assert (a.seed, a.points, a.canonical_json(), a.digest()) == (
        0, twin.points, twin.canonical_json(), twin.digest())


def test_instance_roundtrip(tmp_path):
    inst = generate(Config.WHEEL, 10, seed=2)
    path = tmp_path / "w.json"
    inst.save(str(path))
    back = InstanceFile.load(str(path))
    assert back == inst
    assert back.digest() == inst.digest()


def test_packing_roundtrip(tmp_path):
    pf = PackingFile(
        instance_hash="ab" * 32,
        cycles=[[0, 1, 2, 3]],
        removed_edges=[[(0, 2)]],
    )
    path = tmp_path / "p.json"
    pf.save(str(path))
    back = PackingFile.load(str(path))
    assert back == pf


def run_cli(*argv):
    return main(list(argv))


def test_cli_pack_verify_convex(tmp_path, capsys):
    inst = tmp_path / "c12.json"
    pack = tmp_path / "c12.pack.json"
    assert run_cli("generate", "--config", "convex", "--n", "12", "--seed", "1",
                   "--out", str(inst)) == 0
    assert run_cli("pack", "--in", str(inst), "--out", str(pack)) == 0
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack)) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    doc = json.loads(open(pack).read())
    assert len(doc["cycles"]) == 4


def test_cli_verify_json_output(tmp_path, capsys):
    inst = tmp_path / "c9.json"
    pack = tmp_path / "c9.pack.json"
    run_cli("generate", "--config", "convex", "--n", "9", "--seed", "1", "--out", str(inst))
    run_cli("pack", "--in", str(inst), "--out", str(pack))
    capsys.readouterr()
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["cycle_count"] == 3
    assert all(r["max_crossings"] <= 1 for r in doc["cycles"])


def test_cli_wheel_pack_uses_file_labels(tmp_path, capsys):
    inst = tmp_path / "w14.json"
    pack = tmp_path / "w14.pack.json"
    run_cli("generate", "--config", "wheel", "--n", "14", "--out", str(inst))
    assert run_cli("pack", "--in", str(inst), "--out", str(pack)) == 0
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack)) == 0
    doc = json.loads(open(pack).read())
    assert len(doc["cycles"]) == 4


def test_cli_general_pack(tmp_path, capsys):
    inst = tmp_path / "g17.json"
    pack = tmp_path / "g17.pack.json"
    run_cli("generate", "--config", "general", "--n", "17", "--seed", "3",
            "--out", str(inst))
    assert run_cli("pack", "--in", str(inst), "--out", str(pack)) == 0
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack)) == 0
    doc = json.loads(open(pack).read())
    assert len(doc["cycles"]) >= 3  # n=17 -> k=4 -> at least 3


def test_cli_general_pack_too_small_is_a_packing_failure(tmp_path, capsys):
    inst = tmp_path / "g3.json"
    assert run_cli("generate", "--config", "general", "--n", "3", "--seed", "1",
                   "--out", str(inst)) == 0
    capsys.readouterr()
    assert run_cli("pack", "--in", str(inst), "--out", str(tmp_path / "g3.pack.json")) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "n >= 4" in err
    assert not (tmp_path / "g3.pack.json").exists()


def test_cli_verify_rejects_corrupted_packing(tmp_path, capsys):
    inst = tmp_path / "c6.json"
    pack = tmp_path / "c6.pack.json"
    run_cli("generate", "--config", "convex", "--n", "6", "--seed", "1", "--out", str(inst))
    run_cli("pack", "--in", str(inst), "--out", str(pack))
    doc = json.loads(open(pack).read())
    # duplicate one cycle: pairwise disjointness must fail with exit 1
    doc["cycles"].append(doc["cycles"][0])
    open(pack, "w").write(json.dumps(doc))
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack)) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_fails_every_turned_copy_of_a_tangled_cycle(tmp_path, capsys):
    inst = tmp_path / "c12.json"
    pack = tmp_path / "c12.pack.json"
    run_cli("generate", "--config", "convex", "--n", "12", "--seed", "1", "--out", str(inst))
    run_cli("pack", "--in", str(inst), "--out", str(pack))
    doc = json.loads(open(pack).read())
    # edge-disjoint turns of one cycle with edges crossed twice: one rotation
    # class, so its one sweep must fail every copy
    tangled = (0, 1, 8, 3, 5, 7, 4, 9, 6, 10, 2, 11)
    doc["cycles"] = [[(v + t) % 12 for v in tangled] for t in (0, 3, 6, 9)]
    open(pack, "w").write(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack)) == 1
    lines = capsys.readouterr().out.splitlines()
    rows = [line for line in lines if line.lstrip().startswith("cycle ")]
    assert len(rows) == 4
    for row in rows:
        assert int(row.split("max_crossings=")[1].split()[0]) >= 2 and row.endswith("[FAIL]")
    assert "  pairwise edge-disjoint: True" in lines
    assert lines[-1] == "FAIL"


def test_cli_parses_with_one_parser_per_process(tmp_path, capsys, monkeypatch):
    """Every call after the first reuses one parser, and each gives the
    output and exit code a freshly built parser gives."""
    inst, pack, bad = (tmp_path / f for f in ("g20.json", "g20.pack.json", "g20.bad.json"))
    run_cli("generate", "--config", "general", "--n", "20", "--seed", "1", "--out", str(inst))
    run_cli("pack", "--in", str(inst), "--out", str(pack))
    doc = json.loads(pack.read_text())
    doc["cycles"][0] = list(range(20))
    bad.write_text(json.dumps(doc))
    verify = ("verify", "--instance", str(inst), "--packing")
    calls = [
        (*verify, str(pack), "--json"),
        (*verify, str(pack)),
        (*verify, str(pack), "--no-such-flag"),
        (*verify, str(bad)),
    ]

    def outcome(argv):
        try:
            code = run_cli(*argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    capsys.readouterr()
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _ in fresh] == [0, 0, 2, 1]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert [outcome(argv) for argv in calls] == fresh
    assert built == [1]


def test_generated_general_draw_is_validated_once(monkeypatch):
    """A general draw keeps the PointSet that accepted it, as ring draws do."""
    for seed in (1, 2, 3):
        built = _counting_post_init(monkeypatch)
        inst = generate(Config.GENERAL, 28, seed)
        ps = inst.to_point_set()
        assert built == [28] and inst.to_point_set() is ps
        inst.points[0] = (inst.points[0][0] + 1, inst.points[0][1])
        assert inst.to_point_set() is not ps
        assert built == [28, 28]
        monkeypatch.undo()


def test_general_draw_redraws_a_degenerate_first_draw(monkeypatch):
    """On a small square the first n candidates are often degenerate; the
    draw then equals the one that refuses each bad candidate as it comes."""

    def candidate_by_candidate(n, seed):
        rng = random.Random(seed)
        pts = []
        while len(pts) < n:
            c = (rng.randint(-instances.RADIUS, instances.RADIUS),
                 rng.randint(-instances.RADIUS, instances.RADIUS))
            if in_general_position([Point(x, y) for x, y in pts + [c]]):
                pts.append(c)
        return pts

    monkeypatch.setattr(instances, "RADIUS", 12)
    redrawn = 0
    for n, seed in product(range(3, 11), range(10)):
        pts, ps = instances._general_points(n, seed)
        assert pts == candidate_by_candidate(n, seed)
        assert ps.points == tuple(Point(x, y) for x, y in pts)
        rng = random.Random(seed)
        first = [(rng.randint(-12, 12), rng.randint(-12, 12)) for _ in range(n)]
        redrawn += not in_general_position([Point(x, y) for x, y in first])
    assert redrawn > 10


def test_cli_verify_detects_wrong_instance(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    pack = tmp_path / "a.pack.json"
    run_cli("generate", "--config", "convex", "--n", "9", "--seed", "1", "--out", str(a))
    run_cli("generate", "--config", "convex", "--n", "9", "--seed", "2", "--out", str(b))
    run_cli("pack", "--in", str(a), "--out", str(pack))
    assert run_cli("verify", "--instance", str(b), "--packing", str(pack)) == 1


def test_cli_malformed_input_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"config": "convex"}')
    assert run_cli("pack", "--in", str(bad), "--out", str(tmp_path / "x.json")) == 2


@pytest.mark.parametrize("seed, code", [
    ("abc", 2), ([1, 2], 2), (True, 2), (1.0, 2), (None, 0), (7, 0),
], ids=["string", "list", "bool", "float", "null", "int"])
def test_cli_instance_seed_must_be_null_or_an_integer(tmp_path, capsys, seed, code):
    """A seed is hashed into the instance digest, so junk there is
    malformed input, as in every other field."""
    inst = tmp_path / "c9.json"
    run_cli("generate", "--config", "convex", "--n", "9", "--out", str(inst))
    doc = json.loads(inst.read_text())
    doc["seed"] = seed
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("pack", "--in", str(inst), "--out", str(tmp_path / "p.json")) == code
    if code:
        assert f"seed must be integers, got {seed!r}" in capsys.readouterr().err


def test_cli_oracle(tmp_path, capsys):
    inst = tmp_path / "c6.json"
    run_cli("generate", "--config", "convex", "--n", "6", "--seed", "1", "--out", str(inst))
    capsys.readouterr()
    assert run_cli("oracle", "--in", str(inst)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_packing_size"] == 2
    assert doc["one_plane_count"] == 13
    assert doc["total_ham_cycles"] == 60
    assert set(doc["search_nodes"]) == {"enumeration", "packing"}


def test_cli_oracle_cap(tmp_path, capsys):
    inst = tmp_path / "c12.json"
    run_cli("generate", "--config", "convex", "--n", "12", "--seed", "1", "--out", str(inst))
    assert run_cli("oracle", "--in", str(inst)) == 2


def test_cli_render(tmp_path, capsys):
    inst = tmp_path / "c12.json"
    pack = tmp_path / "c12.pack.json"
    svg = tmp_path / "c12.svg"
    run_cli("generate", "--config", "convex", "--n", "12", "--seed", "1", "--out", str(inst))
    run_cli("pack", "--in", str(inst), "--out", str(pack))
    assert run_cli("render", "--instance", str(inst), "--packing", str(pack),
                   "--out", str(svg)) == 0
    body = svg.read_text()
    assert body.startswith("<svg") and body.count("<line") == 48
    assert 'stroke="green"' in body and 'stroke="gold"' in body


def _unwritable_out(tmp_path, kind):
    """An --out path in a directory that does not exist, or a directory."""
    if kind == "missing-dir":
        return tmp_path / "no" / "such" / "out.json"
    target = tmp_path / "a-dir"
    target.mkdir()
    return target


def _assert_nothing_written(out, capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"error: cannot write {out}")
    assert not out.exists() or (out.is_dir() and not any(out.iterdir()))


@pytest.mark.parametrize("kind", ["missing-dir", "directory"])
def test_cli_generate_unwritable_out(tmp_path, capsys, kind):
    out = _unwritable_out(tmp_path, kind)
    assert run_cli("generate", "--config", "convex", "--n", "6", "--out", str(out)) == 2
    _assert_nothing_written(out, capsys)


@pytest.mark.parametrize("kind", ["missing-dir", "directory"])
def test_cli_pack_unwritable_out(tmp_path, capsys, kind):
    inst = tmp_path / "w10.json"
    run_cli("generate", "--config", "wheel", "--n", "10", "--seed", "1", "--out", str(inst))
    out = _unwritable_out(tmp_path, kind)
    assert run_cli("pack", "--in", str(inst), "--out", str(out)) == 2
    _assert_nothing_written(out, capsys)


@pytest.mark.parametrize("kind", ["missing-dir", "directory"])
def test_cli_render_unwritable_out(tmp_path, capsys, kind):
    inst = tmp_path / "c12.json"
    pack = tmp_path / "c12.pack.json"
    run_cli("generate", "--config", "convex", "--n", "12", "--seed", "1", "--out", str(inst))
    run_cli("pack", "--in", str(inst), "--out", str(pack))
    out = _unwritable_out(tmp_path, kind)
    assert run_cli("render", "--instance", str(inst), "--packing", str(pack),
                   "--out", str(out)) == 2
    _assert_nothing_written(out, capsys)


def test_render_deterministic_and_dashed():
    inst = generate(Config.CONVEX, 6, seed=1)
    ps = inst.to_point_set()
    packing = pack_convex(6)
    removed = [[(0, 3)], []]
    s1 = render_svg(ps, packing.cycles, removed)
    s2 = render_svg(ps, packing.cycles, removed)
    assert s1 == s2
    assert "stroke-dasharray" in s1


# sha256 of render_svg's output for convex n = 64 (pack_convex, no removed
# edges) and general n = 8, seed 37 (one join with a created uncrossing,
# so four dashed edges), recorded before the transform computed its
# minima once; the SVG must stay byte-identical
SVG_CONVEX_64 = "b89cbc07fe42d7138d88071e4ea53ddb075c481ae0342e3099db18de4a179e09"
SVG_GENERAL_8_37 = "4bf131117d0203f918a918aa9bd2be9f86cd251a286f1b0babf3a81f95928fa2"


def test_render_svg_bytes_are_pinned():
    ps = generate(Config.CONVEX, 64, seed=1).to_point_set()
    svg = render_svg(ps, pack_convex(64).cycles)
    assert hashlib.sha256(svg.encode()).hexdigest() == SVG_CONVEX_64
    ps = generate(Config.GENERAL, 8, seed=37).to_point_set()
    result = pack_general_detailed(ps)
    removed = [[e for mv in moves for e in mv.removed_edges()] for moves in result.join_log]
    assert sum(map(len, removed)) == 4
    svg = render_svg(ps, result.packing.cycles, removed)
    assert hashlib.sha256(svg.encode()).hexdigest() == SVG_GENERAL_8_37


def _edited_copy(tmp_path, config, n, edit):
    """Generate an instance, apply `edit` to its JSON document, save both."""
    good = tmp_path / f"{config}{n}.json"
    run_cli("generate", "--config", config, "--n", str(n), "--seed", "1", "--out", str(good))
    doc = json.loads(good.read_text())
    edit(doc)
    bad = tmp_path / f"{config}{n}.bad.json"
    bad.write_text(json.dumps(doc))
    return good, bad


@pytest.mark.parametrize("spoil", [lambda x: x + 0.5, lambda x: True], ids=["half", "bool"])
def test_cli_rejects_non_integer_coordinate(tmp_path, capsys, spoil):
    def edit(doc):
        doc["points"][0][0] = spoil(doc["points"][0][0])

    _, bad = _edited_copy(tmp_path, "convex", 6, edit)
    with pytest.raises(DegenerateInput):
        InstanceFile.load(str(bad))
    assert run_cli("pack", "--in", str(bad), "--out", str(tmp_path / "x.json")) == 2
    assert "must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["9", True, 9.0])
def test_cli_rejects_non_integer_center(tmp_path, capsys, value):
    def edit(doc):
        doc["center_index"] = value

    good, bad = _edited_copy(tmp_path, "wheel", 10, edit)
    assert InstanceFile.load(str(good)).center_index == 9
    assert run_cli("pack", "--in", str(bad), "--out", str(tmp_path / "x.json")) == 2
    assert "must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["cycle", "removed"])
def test_cli_render_index_out_of_range(tmp_path, capsys, where):
    inst = tmp_path / "c6.json"
    pack = tmp_path / "c6.pack.json"
    run_cli("generate", "--config", "convex", "--n", "6", "--seed", "1", "--out", str(inst))
    run_cli("pack", "--in", str(inst), "--out", str(pack))
    doc = json.loads(pack.read_text())
    if where == "cycle":
        doc["cycles"][0][0] = 6
    else:
        doc["removed_edges"] = [[[0, 99]]]
    pack.write_text(json.dumps(doc))
    capsys.readouterr()
    for cmd in ("render", "verify"):
        argv = [cmd, "--instance", str(inst), "--packing", str(pack)]
        if cmd == "render":
            argv += ["--out", str(tmp_path / "x.svg")]
        assert run_cli(*argv) == 2, cmd
        assert "out of range" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_integer_check_names_the_first_bad_value():
    _require_integers([0, 1, 2**70, -3], "values")
    for values, bad in (([0, 1.5, True], "1.5"), ([0, True, "2"], "True"), ([3, "2", 1.0], "'2'")):
        with pytest.raises(DegenerateInput) as err:
            _require_integers(iter(values), "values")
        assert str(err.value) == f"malformed values must be integers, got {bad}"


@pytest.mark.parametrize("cycles, removed", [
    ([[0, 1, 2, -1]], []),
    ([[0, 1, 2, 3]], [[(0, -1)]]),
    ([[0, 1, 2, 3]], [[], [(2, 4)]]),
    ([[0, 1, 2, 3], [4, 0, 2]], []),
])
def test_packing_index_range_is_checked_at_both_ends(cycles, removed):
    with pytest.raises(DegenerateInput, match="out of range"):
        cli._packing_cycles(PackingFile("", cycles, removed), 4)
    assert len(cli._packing_cycles(PackingFile("", [[0, 1, 2, 3]], [[], [(0, 3)]]), 4)) == 1


def test_cli_rejects_unknown_config(tmp_path, capsys):
    def edit(doc):
        doc["config"] = "foo"

    good, bad = _edited_copy(tmp_path, "convex", 6, edit)
    pack = tmp_path / "c6.pack.json"
    run_cli("pack", "--in", str(good), "--out", str(pack))
    with pytest.raises(DegenerateInput):
        InstanceFile.load(str(bad))
    capsys.readouterr()
    for argv in (
        ["pack", "--in", str(bad), "--out", str(tmp_path / "x.json")],
        ["verify", "--instance", str(bad), "--packing", str(pack)],
        ["oracle", "--in", str(bad)],
        ["render", "--instance", str(bad), "--packing", str(pack), "--out", str(tmp_path / "x.svg")],
    ):
        assert run_cli(*argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown config 'foo'" in err, (argv[0], err)


def test_cli_packing_records_uncross_moves(tmp_path, capsys):
    """General n = 8, seed 37 joins its second cycle with one created
    uncrossing: all four removed edges reach the file, verify and render."""
    inst, pack, svg = (tmp_path / f for f in ("g8.json", "g8.pack.json", "g8.svg"))
    assert run_cli("generate", "--config", "general", "--n", "8", "--seed", "37",
                   "--out", str(inst)) == 0
    assert run_cli("pack", "--in", str(inst), "--out", str(pack)) == 0
    log = pack_general_detailed(InstanceFile.load(str(inst)).to_point_set()).join_log
    assert any(mv.created_uncrossings for moves in log for mv in moves)
    removed = json.loads(pack.read_text())["removed_edges"]
    assert removed == [[list(e) for mv in moves for e in mv.removed_edges()] for moves in log]
    assert [len(r) for r in removed].count(4) == 1
    capsys.readouterr()
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
    assert run_cli("render", "--instance", str(inst), "--packing", str(pack),
                   "--out", str(svg)) == 0
    assert svg.read_text().count("stroke-dasharray") == sum(len(r) for r in removed)


def test_cli_missing_file_exit_code(tmp_path):
    assert run_cli("oracle", "--in", str(tmp_path / "nope.json")) == 2


QUAD = [(0, 0), (10, 1), (9, 11), (1, 9)]


@pytest.mark.parametrize("points, config, center, cycles, named, says", [
    (QUAD, "general", 0, [[0, 1, 2, 3]], "instance", "center_index only applies"),
    (QUAD[:3], "wheel", 2, [[0, 1, 2]], "instance", "wheel sets need even n, got 3"),
    ([(0, 0), (1, 1), (2, 2), (5, 0)], "general", None, [[0, 1, 2, 3]], "instance",
     "duplicate or collinear"),
    (QUAD, "general", None, [[0, 1]], "cycle", "at least 3 vertices"),
    (QUAD, "general", None, [[0, 1, 1, 2]], "cycle", "repeated vertex"),
    (QUAD, "general", None, None, "packing", "'cycles'"),
], ids=["config-mismatch", "invalid-n", "collinear", "short-cycle", "repeated-vertex",
        "no-cycles-key"])
def test_cli_load_errors_are_malformed_input(tmp_path, capsys, points, config, center,
                                             cycles, named, says):
    """An instance its PointSet refuses, a packing cycle HamCycle refuses
    and a packing file without cycles all exit 2, with a message naming
    the file or the cycle at fault."""
    inst, pack = tmp_path / "inst.json", tmp_path / "pack.json"
    instance = InstanceFile(points, config, center)
    instance.save(str(inst))
    doc = {"instance_hash": instance.digest(), "cycles": cycles}
    if cycles is None:
        del doc["cycles"]
    pack.write_text(json.dumps(doc))
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack)) == 2
    err = capsys.readouterr().err
    assert says in err
    assert {"instance": str(inst), "packing": str(pack), "cycle": "cycle"}[named] in err


@pytest.mark.parametrize("exc, code", [
    (RuntimeError("boom"), 4),
    (KeyError("boom"), 4),
    (InvalidN("boom"), 3),
])
def test_cli_top_level_guard(tmp_path, capsys, monkeypatch, exc, code):
    """An escaping exception never exits 1, which means verification failed."""
    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_generate", raising)
    argv = ("generate", "--config", "convex", "--n", "6", "--out", str(tmp_path / "c.json"))
    assert run_cli(*argv) == code
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {type(exc).__name__}: {exc}"


def _package_errors():
    return [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, HcpackError)]


@pytest.mark.parametrize("cls", _package_errors(), ids=lambda c: c.__name__)
def test_cli_failure_table(tmp_path, capsys, monkeypatch, cls):
    """main maps every package error to its documented code, never to 1."""
    exc = cls("boom", level=2, cycles=[]) if cls is PackingIncomplete else cls("boom")

    def raising(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_pack", raising)
    code = run_cli("pack", "--in", str(tmp_path / "i.json"), "--out", str(tmp_path / "p.json"))
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    if cls in (DegenerateInput, TooLarge):
        assert (code, err) == (2, "error: boom\n")
    elif cls is PackingIncomplete:
        assert (code, err) == (3, "packing incomplete at level 2: boom (0 cycles found)\n")
    else:
        assert (code, err) == (3, f"error: {cls.__name__}: boom\n")


def test_cli_generate_bad_n_is_malformed_input(tmp_path, capsys):
    out = tmp_path / "w13.json"
    assert run_cli("generate", "--config", "wheel", "--n", "13", "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: wheel instances need even n >= 4\n"
    assert not out.exists()


def test_cli_render_rejects_another_instances_packing(tmp_path, capsys):
    a, b, pack, svg = (tmp_path / f for f in ("a.json", "b.json", "a.pack.json", "b.svg"))
    run_cli("generate", "--config", "convex", "--n", "9", "--seed", "1", "--out", str(a))
    run_cli("generate", "--config", "convex", "--n", "9", "--seed", "2", "--out", str(b))
    run_cli("pack", "--in", str(a), "--out", str(pack))
    capsys.readouterr()
    assert run_cli("render", "--instance", str(b), "--packing", str(pack),
                   "--out", str(svg)) == 2
    assert capsys.readouterr().err == "error: packing digest does not match this instance\n"
    assert not svg.exists()


def test_cli_general_pack_incomplete(tmp_path, capsys, monkeypatch):
    inst, pack = tmp_path / "g16.json", tmp_path / "g16.pack.json"
    run_cli("generate", "--config", "general", "--n", "16", "--seed", "0", "--out", str(inst))
    monkeypatch.setattr(general, "LEVEL_ATTEMPTS", 0)
    capsys.readouterr()
    assert run_cli("pack", "--in", str(inst), "--out", str(pack)) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("packing incomplete at level ")
    assert not pack.exists()


def test_cli_guard_lets_interrupts_through(tmp_path, monkeypatch):
    def raising(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_generate", raising)
    with pytest.raises(KeyboardInterrupt):
        run_cli("generate", "--config", "convex", "--n", "6", "--out", str(tmp_path / "c.json"))


def test_cli_oracle_max_n(tmp_path, capsys):
    inst = tmp_path / "c9.json"
    run_cli("generate", "--config", "convex", "--n", "9", "--seed", "1", "--out", str(inst))
    assert run_cli("oracle", "--in", str(inst)) == 2  # default cap is 8
    capsys.readouterr()
    assert run_cli("oracle", "--in", str(inst), "--max-n", "9") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_packing_size"] == 3


def test_cli_wheel_center_not_last(tmp_path, capsys):
    # a hand-rolled wheel file may store the center anywhere; packing and
    # verification must agree through the relabeling
    base = generate(Config.WHEEL, 14, seed=0)
    rolled = [base.points[-1]] + base.points[:-1]
    inst = InstanceFile(points=rolled, config="wheel", center_index=0, seed=None)
    path = tmp_path / "wc0.json"
    inst.save(str(path))
    pack = tmp_path / "wc0.pack.json"
    assert run_cli("pack", "--in", str(path), "--out", str(pack)) == 0
    assert run_cli("verify", "--instance", str(path), "--packing", str(pack)) == 0
    doc = json.loads(open(pack).read())
    # every cycle visits the center (index 0) exactly once
    assert all(c.count(0) == 1 for c in doc["cycles"])


@pytest.mark.parametrize("spoil", [lambda v: v + 0.5, lambda v: True, str],
                         ids=["half", "bool", "string"])
@pytest.mark.parametrize("where", ["cycle", "removed"])
def test_cli_verify_rejects_non_integer_vertex(tmp_path, capsys, spoil, where):
    inst = tmp_path / "c6.json"
    pack = tmp_path / "c6.pack.json"
    run_cli("generate", "--config", "convex", "--n", "6", "--seed", "1", "--out", str(inst))
    run_cli("pack", "--in", str(inst), "--out", str(pack))
    doc = json.loads(pack.read_text())
    if where == "cycle":
        # a half-integer vertex used to be read as int(0.5) == 0 and PASS
        doc["cycles"] = [[spoil(c[0])] + c[1:] for c in doc["cycles"]]
    else:
        doc["removed_edges"] = [[[spoil(0), 3]], []]
    pack.write_text(json.dumps(doc))
    with pytest.raises(DegenerateInput):
        PackingFile.load(str(pack))
    capsys.readouterr()
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack)) == 2
    assert "must be integers" in capsys.readouterr().err


def test_cli_verify_reports_guarantee(tmp_path, capsys):
    inst = tmp_path / "c9.json"
    pack = tmp_path / "c9.pack.json"
    run_cli("generate", "--config", "convex", "--n", "9", "--seed", "1", "--out", str(inst))
    run_cli("pack", "--in", str(inst), "--out", str(pack))
    doc = json.loads(pack.read_text())
    doc["cycles"] = doc["cycles"][:2]
    pack.write_text(json.dumps(doc))
    capsys.readouterr()
    # fewer cycles than guaranteed is reported, but a valid packing still passes
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "PASS"
    assert "2 of 3 guaranteed" in lines[-2] and "meets guarantee: False" in lines[-2]
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack), "--json") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["guaranteed"] == 3 and report["meets_guarantee"] is False


@pytest.mark.parametrize("config,n,guaranteed", [
    ("convex", 6, 2), ("wheel", 10, 3), ("general", 17, 3),
])
def test_cli_verify_fails_empty_packing(tmp_path, capsys, config, n, guaranteed):
    inst = tmp_path / "i.json"
    pack = tmp_path / "p.json"
    run_cli("generate", "--config", config, "--n", str(n), "--seed", "1", "--out", str(inst))
    PackingFile(InstanceFile.load(str(inst)).digest(), []).save(str(pack))
    capsys.readouterr()
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "FAIL"
    assert f"0 of {guaranteed} guaranteed" in lines[-2]
    assert run_cli("verify", "--instance", str(inst), "--packing", str(pack), "--json") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["guaranteed"] == guaranteed
