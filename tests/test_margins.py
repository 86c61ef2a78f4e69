"""tools/margins.py prints the margins of the seed-dependent acceptance comparisons."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import test_acceptance

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import margins  # noqa: E402


def _calls(node: ast.AST, name: str) -> list[ast.Call]:
    return [c for c in ast.walk(node) if isinstance(c, ast.Call)
            and getattr(c.func, "id", getattr(c.func, "attr", None)) == name]


def _keyword(call: ast.Call, name: str):
    return next(ast.literal_eval(kw.value) for kw in call.keywords if kw.arg == name)


def _asserted(node: ast.AST) -> set[str]:
    return {ast.unparse(a.test) for a in ast.walk(node) if isinstance(a, ast.Assert)}


def test_inputs_are_the_acceptance_suites():
    assert margins.SYNTH_A == test_acceptance.SYNTH_A
    assert margins.SYNTH_B == test_acceptance.SYNTH_B
    assert margins.TRAIN_FLAGS == test_acceptance.TRAIN_FLAGS

    # the settings the suite writes inline, read from its source
    suite = {node.name: node for node in ast.parse(Path(test_acceptance.__file__).read_text()).body
             if isinstance(node, ast.FunctionDef)}
    c6 = suite["test_criterion_6_end_to_end_directions"]
    c7 = suite["test_criterion_7_ablation_harness"]
    [cfg] = _calls(c6, "TrainConfig")
    assert {kw.arg: ast.literal_eval(kw.value) for kw in cfg.keywords
            if kw.arg != "seed"} == margins.CRITERION_6_CONFIG
    assert {_keyword(c, "k") for name in ("evaluate", "baseline_random")
            for c in _calls(c6, name)} == {margins.K}
    assert {_keyword(c, "seed") for c in _calls(c6, "baseline_random")} == {margins.RANDOM_SEED}
    n_layers = margins.CRITERION_6_CONFIG["n_layers"]
    [zero_shot] = _calls(c6, "apply_zero_shot")
    assert _keyword(zero_shot, "n_layers") == n_layers
    assert [ast.literal_eval(c.args[2]) for c in _calls(c6, "diffuse")] == [n_layers]
    embeds = [node.elts for tree in (suite["pipeline"], c6) for node in ast.walk(tree)
              if isinstance(node, ast.List) and node.elts
              and ast.unparse(node.elts[0]) == "'embed'"]
    assert len(embeds) == 2
    for elts in embeds:
        assert [ast.literal_eval(e) for e in elts[-len(margins.EMBED_FLAGS):]] == margins.EMBED_FLAGS

    # each margin's comparison and bound as the suite asserts it
    sides = {"mlp - textgcn": ("mlp_r", "textgcn_r", c6),
             "zs - randB": ("zero_shot_r", "random_b", c6),
             "kpos - best": ("rows['two-tower/k-pos']", "best", c7)}
    assert set(sides) == set(margins.MARGINS)
    for name, (op, bound) in margins.MARGINS.items():
        left, right, tree = sides[name]
        offset = f" - {-bound:g}" if bound < 0 else f" + {bound:g}" if bound > 0 else ""
        assert f"{left} {op} {right}{offset}" in _asserted(tree), name


def test_one_seed_smoke(tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    run = subprocess.run([sys.executable, str(TOOLS / "margins.py"), "--seeds", "3"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = [line.split("\t") for line in run.stdout.strip().splitlines()]
    assert lines[0] == ["seed", "mlp - textgcn", "zs - randB", "kpos - best"]
    assert lines[1][0] == "3" and len(lines[1]) == 4
    values = [float(v) for v in lines[1][1:]]
    assert values[2] <= 0.0            # k-pos minus the best variant, k-pos among them
    for label, row in zip(("min", "median", "max"), lines[2:5]):
        assert row == [label] + lines[1][1:]       # one seed: every statistic is that seed
    assert lines[5][0] == "passes" and all(cell.split(" ")[0] in ("0/1", "1/1")
                                           for cell in lines[5][1:])
    assert list(tmp_path.iterdir()) == []     # the work directory is removed
