import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_models_smoke(tmp_path, capsys):
    script = load_script("benchmark_models")
    assert script.main(["--scenes", "6", "--gbt-n-trees", "3",
                        "--out", str(tmp_path / "bench")]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()
            if line.strip()]
    assert "truth" in rows
    assert all(rows.count(family) == 2 for family in script.FAMILIES)
