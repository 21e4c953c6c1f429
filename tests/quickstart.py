"""The README's quick start: its ``scenario.json`` block and the ``sh``
block that runs the pipeline on it.

``python tests/quickstart.py DIR`` writes them to ``DIR/scenario.json``
and ``DIR/quickstart.sh`` and prints, one a line, the paths the commands
write to; ``bash -e quickstart.sh`` in ``DIR`` then runs the commands with
whatever ``gridscope`` is on the path.
"""

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def write_quick_start(directory) -> list[str]:
    """Write both blocks into ``directory``; the paths the commands write to."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    blocks = re.findall(r"```(\w+)\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    (json_lang, scenario), (sh_lang, commands) = blocks[:2]
    assert (json_lang, sh_lang) == ("json", "sh"), blocks
    directory = Path(directory)
    (directory / "scenario.json").write_text(scenario, encoding="utf-8")
    (directory / "quickstart.sh").write_text(commands, encoding="utf-8")
    return re.findall(r"(?:--out|--stats|--report|>) (\S+)", commands)


if __name__ == "__main__":
    print(*write_quick_start(sys.argv[1]), sep="\n")
