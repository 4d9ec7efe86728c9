"""``scripts/cli_snapshot.py --compare``, on which every "same answers" check rests."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_snapshot.py"


@pytest.fixture(scope="module")
def snapshot():
    spec = importlib.util.spec_from_file_location("cli_snapshot", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TEXT = "argv: analyze inputs/S1.json\nexit: 0\n--- stdout\nF = 20  critical yes (residual 1.25e-16)\n"


def trees(tmp_path: Path, a: dict, b: dict) -> tuple[Path, Path]:
    """Two snapshot trees holding the files a and b, by relative name."""
    roots = tmp_path / "a", tmp_path / "b"
    for root, files in zip(roots, (a, b)):
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    return roots


def compare(snapshot, capsys, a: Path, b: Path) -> tuple[int, list[str]]:
    code = snapshot.main(["--compare", str(a), str(b)])
    return code, capsys.readouterr().out.splitlines()


def test_identical_trees_exit_0(snapshot, capsys, tmp_path):
    files = {"analyze-S1.txt": TEXT, "inputs/S1.json": "{}\n"}
    code, out = compare(snapshot, capsys, *trees(tmp_path, files, files))
    assert code == 0 and out == ["0 of 2 files differ"]


def test_one_digit_is_a_numeric_change(snapshot, capsys, tmp_path):
    changed = TEXT.replace("1.25e-16", "1.26e-16")
    a, b = trees(tmp_path, {"analyze-S1.txt": TEXT}, {"analyze-S1.txt": changed})
    code, out = compare(snapshot, capsys, a, b)
    assert code == 1
    assert out[0].startswith("analyze-S1.txt: 1 numeric fields only; largest relative change 0.00794"
                             " (1.25e-16 -> 1.26e-16), largest absolute change 1e-18")
    assert out[-1] == "1 of 1 files differ"


def test_word_change_is_a_text_change(snapshot, capsys, tmp_path):
    a, b = trees(tmp_path, {"analyze-S1.txt": TEXT}, {"analyze-S1.txt": TEXT.replace("yes", "no")})
    code, out = compare(snapshot, capsys, a, b)
    assert code == 1 and out == ["analyze-S1.txt: text differs", "1 of 1 files differ"]


def test_file_in_one_tree_only(snapshot, capsys, tmp_path):
    a, b = trees(tmp_path, {"analyze-S1.txt": TEXT, "check-S1.txt": TEXT}, {"analyze-S1.txt": TEXT})
    code, out = compare(snapshot, capsys, a, b)
    assert code == 1 and out == [f"check-S1.txt: only in {a}", "1 of 2 files differ"]
