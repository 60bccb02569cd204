"""Stored reference outputs: the CSVs of four default commands.

Rewrite the files in tests/data/ after a change that moves them on purpose:

    PYTHONPATH=src python tests/reference_outputs.py

Each command in COMMANDS runs through the command line, at one BLAS thread,
and its CSV is stored as tests/data/<name>.csv. test_reference_outputs runs
the same commands and compares their values with the stored ones.
"""

import shutil
import tempfile
from pathlib import Path

# imported before numpy, so that the process asks its BLAS for one thread
import qmeasure  # noqa: F401
from qmeasure.cli import main

DATA = Path(__file__).with_name("data")

# stored name -> command-line arguments; the command writes <command>.csv
COMMANDS = {
    "run": ["run"],
    "sweep": ["sweep"],
    "sweep-step": ["sweep", "--engines", "C", "--filter", "step"],
    "validate-abc": ["validate", "--engines", "A,B,C"],
}


def produce(name: str, directory: Path) -> Path:
    """Run the named command into `directory`; the path of its CSV."""
    args = COMMANDS[name]
    status = main([*args, "--out", str(directory)])
    if status != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {status}")
    return directory / f"{args[0]}.csv"


def rewrite() -> None:
    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in COMMANDS:
            shutil.copyfile(produce(name, Path(tmp) / name), DATA / f"{name}.csv")


if __name__ == "__main__":
    rewrite()
