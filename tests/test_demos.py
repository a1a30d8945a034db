"""Every narrative script in demos/ and every python block of README.md runs to completion.

The demos import only the public modules and assert their own headline
facts, so running them in-process catches an API change that breaks one;
running the README's blocks keeps its examples in step with the API, and
its configuration table is checked against the config's fields.
"""

from __future__ import annotations

import re
import runpy
from pathlib import Path

import pytest

from timebin_qkd.experiment import ExperimentConfig, config_to_dict

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_blocks_are_found():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_block_runs(block, capsys):
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out


def test_readme_config_table_names_every_field():
    # the rows under "| section | fields (defaults) |": each section, or
    # "scalar" for the top-level keys, and the backticked names in its row
    table = README.split("\n| section | fields", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| (`\w+`|scalar) \| (.*) \|$", table, re.M)
    documented = {
        section.strip("`"): sorted(re.findall(r"`(\w+)`", fields)) for section, fields in rows
    }
    config = config_to_dict(ExperimentConfig())
    expected = {
        section: sorted(value) for section, value in config.items() if isinstance(value, dict)
    }
    expected["scalar"] = sorted(key for key, value in config.items() if not isinstance(value, dict))
    assert documented == expected
