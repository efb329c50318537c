import re
from pathlib import Path

import nlslab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_names_match_all():
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    listing = library.split("Public names (`nlslab.__all__`):", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`(\w+)`", listing)
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(nlslab.__all__)
