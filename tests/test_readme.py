"""The README's code runs as documented, against a small scene."""

import re
from pathlib import Path

from deixis.scene import Box, SceneGraph, SceneObject, SceneRelation

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs():
    # A man on a boat and a dog beside it: only the man is on a boat.
    scene_graph = SceneGraph(
        image_id=1,
        objects=(
            SceneObject(1, ("man",), Box(0, 0, 10, 10), ()),
            SceneObject(2, ("boat",), Box(20, 0, 10, 10), ()),
            SceneObject(3, ("dog",), Box(40, 0, 10, 10), ()),
        ),
        relations=(SceneRelation(1, "on", 2), SceneRelation(3, "near", 2)),
    )
    namespace = {"scene_graph": scene_graph}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    [prediction] = namespace["predictions"]
    assert prediction.object_id == 1 and not prediction.fallback
