"""The README's library quick start runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    """The first python code block under the "Library quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("\n```", start)]


def test_quick_start_runs():
    exec(compile(quick_start_code(), f"{README.name} quick start", "exec"), {})
