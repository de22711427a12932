"""``scripts/closed_form_probe.py`` on a short range: it runs end to end,
and its level-2 meter, sampled between table nodes, stays within the
table's interpolation error (3e-12 in log measured)."""

import importlib.util
import re
from pathlib import Path

SCRIPT = (Path(__file__).resolve().parents[1] / "scripts"
          / "closed_form_probe.py")


def test_short_probe_sees_the_interpolant(capsys):
    spec = importlib.util.spec_from_file_location("closed_form_probe", SCRIPT)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    assert probe.main(["--decades", "-2", "0"]) == 0
    out = capsys.readouterr().out
    worst = re.search(r"worst: level 1 (\S+), level 2 (\S+)", out)
    assert float(worst.group(1)) == 0.0
    assert float(worst.group(2)) <= 1e-11
