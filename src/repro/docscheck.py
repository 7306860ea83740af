"""Stdlib link-and-anchor checker for the documentation tree.

Four PRs of subsystem growth showed how documentation rots: sections
get renumbered (docs/architecture.md twice now), files move, and prose
references like ``docs/performance.md §2`` silently point at the wrong
section. This module is the CI gate against that rot (the lint job
runs ``python -m repro.docscheck``). It checks, over ``docs/*.md`` +
README + CONTRIBUTING:

* **Markdown links** ``[text](target)`` — the target file must exist
  (external ``scheme://`` links are skipped) and, when the link carries
  a ``#fragment``, the target must contain a heading whose GitHub slug
  matches.
* **Path tokens** — inline-code and bare references to repository
  files (``src/repro/bpred/ras.py``, ``docs/traces.md``) must exist.
  Glob/template tokens (``*``, ``<``, ``$``…) and generated artifact
  directories (``benchmarks/out``) are ignored.
* **Section references** — ``somefile.md §N`` / ``section N`` must
  resolve to a ``## N.`` heading in that file; a bare ``§N`` is checked
  against the current file's own numbered headings. This is the check
  that catches a renumbering PR missing a cross-reference.
* **Knob drift** (whole-tree runs only) — every ``REPRO_*`` name in the
  code under ``src/`` or ``benchmarks/`` must appear in the docs, and
  every ``REPRO_*`` name the docs mention must still exist in
  ``src/``, ``benchmarks/`` or ``.github/``: a deleted knob cannot
  linger in the docs, nor a new one go undocumented.
* **CLI-flag drift** (whole-tree runs only) — every ``repro-sim …`` or
  ``python -m repro …`` example, in inline code or a fenced block,
  names only flags its (sub)command's parser accepts, so a removed
  flag cannot linger in an example.

Pure stdlib by design: the lint job must not need the simulator's
test dependencies to validate prose. The CLI-flag check imports the
``repro`` package's own parser, and only when it runs.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Path prefixes that name generated artifacts: referenced legitimately
#: by the docs, but absent from a fresh checkout.
GENERATED_PREFIXES = ("benchmarks/out", "traces/", ".ci-cache")

#: Characters marking a token as a template/glob/env expansion rather
#: than a literal repository path.
_NON_LITERAL = set("*<>{}$~= ")

#: Extensions a backticked token must carry to be treated as a file
#: reference (prose like ``cache/get`` names span labels, not paths).
_FILE_SUFFIXES = (".md", ".py", ".json", ".jsonl", ".yml", ".yaml",
                  ".toml", ".xz")

_FENCE_RE = re.compile(r"^(```|~~~)")
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_CODE_TOKEN_RE = re.compile(r"`([^`\n]+)`")
_MD_TOKEN_RE = re.compile(r"[A-Za-z0-9_./-]+\.md\b")
_SECTION_REF_RE = re.compile(
    r"([A-Za-z0-9_./-]+\.md)`?[\s(]*(?:§\s*|[Ss]ection\s+)(\d+)")
_BARE_SECTION_RE = re.compile(r"§\s*(\d+)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*$")
_NUMBERED_HEADING_RE = re.compile(r"^#{1,6}\s+(\d+)\.")
_KNOB_RE = re.compile(r"REPRO_[A-Z_]+")
_CLI_RE = re.compile(r"(?:repro-sim|python3? -m repro)(?=\s)")
#: Shell syntax that ends one command of an example line.
_CLI_END_RE = re.compile(r"\s#|[|&;<>`]")

#: Files scanned for knob names under the code and CI directories.
_KNOB_SUFFIXES = (".py", ".yml", ".yaml")


def strip_fenced_blocks(text: str) -> str:
    """Blank out fenced code blocks, preserving line numbering.

    Shell transcripts and ASCII diagrams live in fences and are full
    of template paths (``traces/<name>.rastrace``) that must not be
    link-checked.
    """
    out: List[str] = []
    in_fence = False
    for line in text.splitlines():
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            out.append("")
        else:
            out.append("" if in_fence else line)
    return "\n".join(out)


def slugify(title: str) -> str:
    """GitHub's anchor slug for a heading title."""
    slug = re.sub(r"[^\w\- ]", "", title.strip().lower())
    return slug.replace(" ", "-")


def heading_slugs(text: str) -> List[str]:
    slugs: List[str] = []
    for line in strip_fenced_blocks(text).splitlines():
        match = _HEADING_RE.match(line)
        if match:
            slugs.append(slugify(match.group(2)))
    return slugs


def numbered_sections(text: str) -> List[int]:
    """The N of every ``## N. Title`` heading, in order."""
    numbers: List[int] = []
    for line in strip_fenced_blocks(text).splitlines():
        match = _NUMBERED_HEADING_RE.match(line)
        if match:
            numbers.append(int(match.group(1)))
    return numbers


def _is_literal_path(token: str) -> bool:
    return not (_NON_LITERAL & set(token))


def _resolve(token: str, md_file: Path, root: Path) -> Optional[Path]:
    """The existing file/dir a token names, or None."""
    for base in (root, md_file.parent):
        candidate = base / token
        if candidate.exists():
            return candidate
    return None


def _ignored(token: str) -> bool:
    return token.startswith(GENERATED_PREFIXES)


def _iter_checkable_lines(text: str) -> Iterator[Tuple[int, str]]:
    for lineno, line in enumerate(
            strip_fenced_blocks(text).splitlines(), start=1):
        if line:
            yield lineno, line


def check_file(md_file: Path, root: Path) -> List[str]:
    """All problems in one markdown file, as ``file:line: message``."""
    problems: List[str] = []
    text = md_file.read_text(encoding="utf-8")
    rel = md_file.relative_to(root)

    def problem(lineno: int, message: str) -> None:
        problems.append(f"{rel}:{lineno}: {message}")

    own_sections = numbered_sections(text)

    for lineno, line in _iter_checkable_lines(text):
        link_spans = [m.span() for m in _LINK_RE.finditer(line)]

        # 1. Markdown links (with optional #anchor).
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if "://" in target or target.startswith("mailto:"):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part and not _is_literal_path(path_part):
                continue
            if path_part and _ignored(path_part):
                continue
            resolved = (_resolve(path_part, md_file, root)
                        if path_part else md_file)
            if resolved is None:
                problem(lineno, f"broken link target: {target}")
                continue
            if fragment and resolved.suffix == ".md":
                slugs = heading_slugs(
                    resolved.read_text(encoding="utf-8"))
                if fragment.lower() not in slugs:
                    problem(lineno,
                            f"no heading for anchor #{fragment} "
                            f"in {path_part or rel}")

        # 2. Inline-code path tokens.
        for match in _CODE_TOKEN_RE.finditer(line):
            token = match.group(1).split("::")[0]
            if not _is_literal_path(token) or _ignored(token):
                continue
            if token.endswith("/"):
                if _resolve(token, md_file, root) is None:
                    problem(lineno, f"missing directory: {token}")
            elif "/" in token and token.endswith(_FILE_SUFFIXES):
                if _resolve(token, md_file, root) is None:
                    problem(lineno, f"missing file: {token}")

        # 3. Bare *.md mentions (markdown-link targets are covered by
        # pass 1; URL paths are not repository files).
        for match in _MD_TOKEN_RE.finditer(line):
            token = match.group(0)
            if any(start <= match.start() < end
                   for start, end in link_spans):
                continue
            if line[:match.start()].endswith("://"):
                continue
            if not _is_literal_path(token) or _ignored(token):
                continue
            if _resolve(token, md_file, root) is None:
                problem(lineno, f"missing file: {token}")

        # 4. Section references against the target's numbered headings.
        ref_spans: List[Tuple[int, int]] = []
        for match in _SECTION_REF_RE.finditer(line):
            ref_spans.append(match.span())
            token, number = match.group(1), int(match.group(2))
            target = _resolve(token, md_file, root)
            if target is None:
                continue  # already reported by the *.md pass
            sections = numbered_sections(
                target.read_text(encoding="utf-8"))
            if sections and number not in sections:
                problem(lineno,
                        f"{token} has no section {number} "
                        f"(it has 1..{max(sections)})")

        # 5. Bare §N references resolve against this file itself.
        for match in _BARE_SECTION_RE.finditer(line):
            if any(start <= match.start() < end
                   for start, end in ref_spans):
                continue
            number = int(match.group(1))
            if own_sections and number not in own_sections:
                problem(lineno,
                        f"this file has no section {number} "
                        f"(it has 1..{max(own_sections)})")

    return problems


def default_targets(root: Path) -> List[Path]:
    targets = sorted((root / "docs").glob("*.md"))
    for name in ("README.md", "CONTRIBUTING.md"):
        candidate = root / name
        if candidate.exists():
            targets.append(candidate)
    return targets


def _knob_mentions(files: Iterable[Path], root: Path) -> Dict[str, str]:
    """The first ``file:line`` naming each ``REPRO_*`` knob."""
    where: Dict[str, str] = {}
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for name in _KNOB_RE.findall(line):
                where.setdefault(
                    name, f"{path.relative_to(root)}:{lineno}")
    return where


def _code_files(root: Path, dirs: Sequence[str]) -> List[Path]:
    return sorted(path for name in dirs for path in (root / name).rglob("*")
                  if path.suffix in _KNOB_SUFFIXES and path.is_file())


def check_knobs(root: Path) -> List[str]:
    """Knob drift between the code and the docs, in both directions."""
    code = _knob_mentions(_code_files(root, ("src", "benchmarks")), root)
    ci = _knob_mentions(_code_files(root, (".github",)), root)
    docs = _knob_mentions(default_targets(root), root)
    problems = [f"{code[name]}: knob {name} is not documented in docs/, "
                f"README.md or CONTRIBUTING.md"
                for name in sorted(code.keys() - docs.keys())]
    problems.extend(f"{docs[name]}: no knob {name} in src/, benchmarks/ "
                    f"or .github/"
                    for name in sorted(docs.keys() - code.keys() - ci.keys()))
    return problems


def _command_lines(text: str) -> Iterator[Tuple[int, str]]:
    """``(line, code)`` for every fenced line (backslash continuations
    joined) and every inline-code span of the prose."""
    in_fence = False
    pending: Optional[Tuple[int, str]] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if _FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            yield from ((lineno, m.group(1))
                        for m in _CODE_TOKEN_RE.finditer(line))
            continue
        start, joined = pending or (lineno, "")
        joined += " " + line.rstrip()
        if joined.endswith("\\"):
            pending = (start, joined[:-1])
        else:
            pending = None
            yield start, joined


def check_cli_flags(root: Path) -> List[str]:
    """CLI examples in the docs naming a flag their command lacks."""
    import argparse

    from repro.cli import _build_parser

    def leaf(parser, words: List[str]):
        """The parser the leading command words select, or None."""
        for word in words:
            subs = [action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)]
            if not subs:
                return parser
            parser = subs[0].choices.get(word)
            if parser is None:
                return None
        return parser

    top = _build_parser()
    problems: List[str] = []
    for path in default_targets(root):
        rel = path.relative_to(root)
        text = path.read_text(encoding="utf-8")
        for lineno, code in _command_lines(text):
            for match in _CLI_RE.finditer(code):
                rest = code[match.end():]
                end = _CLI_END_RE.search(rest)
                words = (rest[:end.start()] if end else rest).split()
                parser = leaf(top, words)
                if parser is None:
                    continue  # a placeholder or partial command
                for word in words:
                    flag = word.split("=", 1)[0]
                    if (flag.startswith("--") and len(flag) > 2
                            and flag not in parser._option_string_actions):
                        problems.append(
                            f"{rel}:{lineno}: `{parser.prog}` has no "
                            f"flag {flag}")
    return problems


def run(paths: Sequence[str], root: Path) -> Tuple[int, List[str]]:
    """Check the given files (or the default set, plus knob drift) and
    return (files_checked, problems)."""
    targets = ([root / p for p in paths] if paths
               else default_targets(root))
    problems: List[str] = ([] if paths
                           else check_knobs(root) + check_cli_flags(root))
    for target in targets:
        if not target.exists():
            problems.append(f"{target}: no such file")
            continue
        problems.extend(check_file(target.resolve(), root.resolve()))
    return len(targets), problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    checked, problems = run(args, Path.cwd())
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        print(f"docscheck: {len(problems)} problem(s) "
              f"in {checked} file(s)", file=sys.stderr)
        return 1
    print(f"docscheck: {checked} file(s) ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
