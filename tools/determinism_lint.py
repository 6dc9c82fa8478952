#!/usr/bin/env python3
"""Determinism lint: static checks for nondeterminism hazards in C++ sources.

Every result this repo ships rests on campaign JSON being byte-identical
across --jobs 1/8, --stream, and every env-pinned fast path. The ctest
equivalence gates catch regressions after the fact on the seeds they run;
this lint rejects the classic *sources* of nondeterminism before they land:

  BR-UNORDERED-OUTPUT   iteration over std::unordered_map/unordered_set in a
                        function reachable from JSON/report rendering or
                        aggregate folding (bucket order is
                        implementation-defined and seed-dependent)
  BR-WALL-CLOCK         wall-clock reads (std::chrono::*_clock::now, time(),
                        clock(), gettimeofday, ...) outside allowlisted
                        wall-clock shims — simulated time only
  BR-UNSEEDED-RNG       std::random_device, rand()/srand(), drand48():
                        nondeterministic or hidden-global-state RNG (use
                        src/common/rng.h, seeded explicitly)
  BR-POINTER-ORDER      pointer values used as ordering or hash keys
                        (std::hash<T*>, pointer-to-integer casts, std::sort
                        of a pointer container without a comparator): heap
                        addresses change run to run under ASLR
  BR-FLOAT-ORDER        accumulation-order hazards for floats: std::reduce /
                        std::transform_reduce, std::execution parallel
                        policies, std::accumulate over an unordered container
  BR-HIDDEN-ENV         environment reads (getenv, secure_getenv, environ)
                        anywhere under src/: runtime knobs reach the library
                        only through RuntimeKnobs, which the CLI fills once.
                        This rule cannot be allowlisted.

The checker is deliberately "AST-lite": comment/string-stripped sources,
bracket-matched template types, a regex-extracted function table and a
name-matched call graph. It overapproximates (e.g. all overloads of a name
are merged), so genuine false positives are suppressed via the allowlist —
each entry carries a written justification:

    tools/determinism_lint_allow.txt
    RULE-ID | path-glob | line-substring-or-* | justification

Stale entries (matching nothing) and entries without a justification fail
the lint, so the allowlist can only shrink to exactly what is justified.

Usage:
    determinism_lint.py [--root DIR] [--allowlist FILE] [paths...]

Default paths: src tools (files: .h .hpp .cc .cpp). Exit codes: 0 clean,
1 findings (or stale/invalid allowlist entries), 2 usage errors.

Runs as ctest `lint_determinism`; tests/lint_selftest.py proves each rule
fires on its fixture in tests/lint_fixtures/. Stdlib-only (see
tools/ci_python_requirements.txt).
"""

import argparse
import fnmatch
import os
import re
import sys

CXX_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")

# Functions whose (unqualified) name marks them as producing externally
# visible output or folding aggregates: the seeds of the reachability pass.
OUTPUT_SEED_NAME = re.compile(
    r"(Json|Render|Write|Emit|Report|Print|Dump|Serializ|Aggregate|Fold|"
    r"Summar|ToString|Key\b)"
)
# Files whose whole content is output-adjacent (every function is a seed).
OUTPUT_SEED_FILE = re.compile(r"(report|json|writer|_cli|render)", re.IGNORECASE)

UNORDERED_DECL = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
PTR_CONTAINER_DECL = re.compile(
    r"\bstd\s*::\s*(?:vector|array|deque)\s*<[^<>;()]*\*[^<>;()]*>\s*(?:&\s*)?"
    r"(?P<name>[A-Za-z_]\w*)\s*[;({=,)]"
)

WALL_CLOCK = re.compile(
    r"\bstd\s*::\s*chrono\s*::\s*(?:steady_clock|system_clock|high_resolution_clock)"
    r"\s*::\s*now\b"
    r"|(?<![\w.:>])(?:time|clock)\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
    r"|\b(?:gettimeofday|clock_gettime|localtime(?:_r)?|gmtime(?:_r)?|mktime)\s*\("
)
UNSEEDED_RNG = re.compile(
    # Seeding calls match regardless of how the argument is spelled —
    # srand(seed) still routes everything through hidden global state.
    r"\bstd\s*::\s*random_device\b"
    r"|(?<![\w.:>])(?:srand|srand48|srandom|seed48)\s*\("
    r"|(?<![\w.:>])(?:rand|drand48|lrand48|mrand48|random)\s*\(\s*\)"
)
POINTER_HASH = re.compile(
    r"\bstd\s*::\s*hash\s*<[^<>;]*\*\s*(?:const\s*)?>"
    r"|\breinterpret_cast\s*<\s*(?:std\s*::\s*)?(?:size_t|uintptr_t|intptr_t)\s*>\s*\("
)
FLOAT_ORDER = re.compile(
    r"\bstd\s*::\s*(?:transform_)?reduce\s*\("
    r"|\bstd\s*::\s*execution\s*::\s*(?:par\b|par_unseq\b|unseq\b)"
)
HIDDEN_ENV = re.compile(r"\b(?:secure_getenv|getenv)\s*\(|\benviron\b")
RANGE_FOR = re.compile(
    r"\bfor\s*\(\s*[^;()]*?[:\s&*\w>\]]\s*:\s*(?P<expr>[^)]+)\)"
)
ITER_CALL = re.compile(r"(?P<obj>[A-Za-z_][\w.\->]*)\s*\.\s*c?r?begin\s*\(\s*\)")
ACCUMULATE = re.compile(r"\bstd\s*::\s*accumulate\s*\(\s*(?P<obj>[A-Za-z_][\w.\->]*)\s*\.")
# A function definition header: qualified name, argument list, then an
# opening brace (constructor initializer lists tolerated via [^;{}]*).
FUNC_DEF = re.compile(
    r"(?:^|[\s*&])(?P<name>~?[A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*"
    r"\((?P<args>[^;{}()]*(?:\([^()]*\)[^;{}()]*)*)\)\s*"
    r"(?:const|noexcept|override|final|mutable|->\s*[\w:<>,&*\s]+|\s)*\{",
    re.MULTILINE,
)
CALL_SITE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
NON_CALL_KEYWORDS = frozenset(
    "if while for switch return sizeof static_cast dynamic_cast const_cast "
    "reinterpret_cast catch throw new delete alignof decltype noexcept "
    "defined assert".split()
)


class Finding:
    def __init__(self, rule, path, line, text, message):
        self.rule = rule
        self.path = path  # repo-relative, posix separators
        self.line = line  # 1-indexed
        self.text = text  # stripped source line content
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


RAW_STRING_OPEN = re.compile(r'"(?P<delim>[^()\\\s"]{0,16})\(')


def raw_string_prefix_at(source, quote_idx):
    """True if the `"` at quote_idx carries a raw-literal prefix (R, u8R, LR, ...)."""
    m = re.search(r"(?:u8|[uUL])?R\Z", source[max(0, quote_idx - 3) : quote_idx])
    if not m:
        return False
    start = max(0, quote_idx - 3) + m.start()
    prev = source[start - 1] if start > 0 else ""
    return not (prev.isalnum() or prev == "_")


def digit_separator_at(source, quote_idx):
    """True if the `'` at quote_idx sits inside a numeric literal (1'000)."""
    start = quote_idx
    while start > 0 and (source[start - 1].isalnum() or source[start - 1] in "_'."):
        start -= 1
    return start < quote_idx and source[start].isdigit()


def strip_comments_and_strings(source):
    """Blanks out comments and string/char literals, preserving newlines."""
    out = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = source.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = source.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            chunk = source[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            i = j + 2
        elif c == '"' and raw_string_prefix_at(source, i):
            # Raw string literal R"delim( ... )delim": embedded quotes and
            # backslashes are literal content, so scan for the closing
            # )delim" instead of the plain quote scanner.
            open_m = RAW_STRING_OPEN.match(source, i)
            if open_m:
                closer = ")" + open_m.group("delim") + '"'
                j = source.find(closer, open_m.end())
                j = n if j < 0 else j + len(closer)
                chunk = source[i:j]
                out.append("".join(ch if ch == "\n" else " " for ch in chunk))
                i = j
            else:  # malformed open sequence: treat as an ordinary string
                out.append(c)
                i += 1
        elif c == "'" and digit_separator_at(source, i):
            out.append(c)  # 1'000'000: a C++14 digit separator, not a literal
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and source[j] != quote:
                j += 2 if source[j] == "\\" else 1
            j = min(j, n - 1)
            out.append(quote + " " * (j - i - 1) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def match_template_close(text, open_idx):
    """Index just past the `>` matching the `<` at open_idx, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}" and depth > 0:
            return -1  # not a template after all (e.g. operator<)
    return -1


def line_of(text, idx):
    return text.count("\n", 0, idx) + 1


def line_text(lines, lineno):
    return lines[lineno - 1].strip() if 0 < lineno <= len(lines) else ""


def unordered_container_names(text):
    """Names declared with an unordered container type in this file."""
    names = set()
    for m in UNORDERED_DECL.finditer(text):
        close = match_template_close(text, m.end() - 1)
        if close < 0:
            continue
        # `std::unordered_map<K, V> name` or `...>& name` / `...>* name`.
        tail = re.match(r"\s*[&*]*\s*(?:const\s+)?([A-Za-z_]\w*)\s*[;({=,]", text[close:])
        if tail:
            names.add(tail.group(1))
    return names


def pointer_container_names(text):
    return {m.group("name") for m in PTR_CONTAINER_DECL.finditer(text)}


def last_identifier(expr):
    """Trailing identifier of an expression like `obj.member` / `p->items_`."""
    ids = re.findall(r"[A-Za-z_]\w*", expr)
    return ids[-1] if ids else ""


class FunctionSpan:
    def __init__(self, name, path, start, end):
        self.name = name  # unqualified
        self.path = path
        self.start = start  # character offsets into the stripped text
        self.end = end
        self.calls = set()
        self.is_seed = False


def extract_functions(text, path):
    """Regex + brace-matched function definition spans, with call sites."""
    spans = []
    file_is_seed = bool(OUTPUT_SEED_FILE.search(path))
    for m in FUNC_DEF.finditer(text):
        name = m.group("name").split("::")[-1].strip()
        if name in NON_CALL_KEYWORDS or not name:
            continue
        brace = m.end() - 1
        depth = 0
        end = len(text)
        for i in range(brace, len(text)):
            if text[i] == "{":
                depth += 1
            elif text[i] == "}":
                depth -= 1
                if depth == 0:
                    end = i + 1
                    break
        span = FunctionSpan(name, path, brace, end)
        body = text[brace:end]
        for call in CALL_SITE.finditer(body):
            callee = call.group(1)
            if callee not in NON_CALL_KEYWORDS:
                span.calls.add(callee)
        span.is_seed = file_is_seed or bool(OUTPUT_SEED_NAME.search(name))
        spans.append(span)
    return spans


def reachable_from_output(all_spans):
    """Unqualified names of functions reachable (callee-wise) from any seed."""
    by_name = {}
    for span in all_spans:
        by_name.setdefault(span.name, []).append(span)
    reachable = set()
    work = [s.name for s in all_spans if s.is_seed]
    while work:
        name = work.pop()
        if name in reachable:
            continue
        reachable.add(name)
        for span in by_name.get(name, ()):
            for callee in span.calls:
                if callee not in reachable and callee in by_name:
                    work.append(callee)
    return reachable


def enclosing_function(spans, idx):
    best = None
    for span in spans:
        if span.start <= idx < span.end:
            if best is None or span.start > best.start:
                best = span  # innermost (e.g. local struct methods)
    return best


def scan_file(rel, text, reachable, spans_by_file):
    findings = []
    lines = text.split("\n")
    spans = spans_by_file.get(rel, [])

    def add(rule, idx, message):
        lineno = line_of(text, idx)
        findings.append(Finding(rule, rel, lineno, line_text(lines, lineno), message))

    unordered = unordered_container_names(text)
    ptr_containers = pointer_container_names(text)

    # BR-UNORDERED-OUTPUT: iteration over an unordered container inside a
    # function reachable from rendering/aggregation.
    def iteration_hit(idx, obj_name):
        if obj_name not in unordered:
            return
        span = enclosing_function(spans, idx)
        where = span.name if span else "file scope"
        if span is None or span.name in reachable or span.is_seed:
            add(
                "BR-UNORDERED-OUTPUT",
                idx,
                f"iteration over unordered container '{obj_name}' in '{where}', "
                "which is reachable from output rendering/aggregation — bucket "
                "order is not deterministic; use an ordered container or sort "
                "before emitting",
            )

    for m in RANGE_FOR.finditer(text):
        iteration_hit(m.start(), last_identifier(m.group("expr")))
    for m in ITER_CALL.finditer(text):
        iteration_hit(m.start(), last_identifier(m.group("obj")))

    # BR-WALL-CLOCK / BR-UNSEEDED-RNG / BR-POINTER-ORDER / BR-FLOAT-ORDER.
    for m in WALL_CLOCK.finditer(text):
        add(
            "BR-WALL-CLOCK",
            m.start(),
            "wall-clock read — simulation code must use SimTime; if this is a "
            "deliberate wall-clock shim, allowlist it with a justification",
        )
    for m in UNSEEDED_RNG.finditer(text):
        add(
            "BR-UNSEEDED-RNG",
            m.start(),
            "nondeterministic / hidden-global-state RNG — use the explicitly "
            "seeded generators in src/common/rng.h",
        )
    for m in POINTER_HASH.finditer(text):
        add(
            "BR-POINTER-ORDER",
            m.start(),
            "pointer value hashed or cast to an integer — heap addresses vary "
            "run to run (ASLR); key on stable identifiers instead",
        )
    for m in re.finditer(
        r"\bstd\s*::\s*(?:stable_)?sort\s*\(\s*(?P<obj>[A-Za-z_][\w.\->]*)\s*\.\s*"
        r"c?begin\s*\(\s*\)\s*,\s*(?P=obj)\s*\.\s*c?end\s*\(\s*\)\s*\)",
        text,
    ):
        if last_identifier(m.group("obj")) in ptr_containers:
            add(
                "BR-POINTER-ORDER",
                m.start(),
                f"std::sort over pointer container '{m.group('obj')}' without a "
                "comparator sorts by address — supply a comparator over stable "
                "fields",
            )
    for m in FLOAT_ORDER.finditer(text):
        add(
            "BR-FLOAT-ORDER",
            m.start(),
            "std::reduce / parallel execution policy reorders accumulation — "
            "floating-point folds must use a fixed left-to-right order "
            "(std::accumulate over an ordered range)",
        )
    if rel.startswith("src/"):
        for m in HIDDEN_ENV.finditer(text):
            add("BR-HIDDEN-ENV", m.start(),
                "environment read in the library — runtime knobs reach src/ only "
                "as RuntimeKnobs fields (src/campaign/knobs.h) the CLI reads once")
    for m in ACCUMULATE.finditer(text):
        if last_identifier(m.group("obj")) in unordered:
            add(
                "BR-FLOAT-ORDER",
                m.start(),
                f"std::accumulate over unordered container '{m.group('obj')}' "
                "folds in bucket order — accumulate over an ordered range",
            )
    return findings


class AllowEntry:
    def __init__(self, rule, path_glob, needle, justification, source_line):
        self.rule = rule
        self.path_glob = path_glob
        self.needle = needle  # substring of the flagged source line, or "*"
        self.justification = justification
        self.source_line = source_line
        self.used = False

    def matches(self, finding):
        if self.rule != finding.rule:
            return False
        if not fnmatch.fnmatch(finding.path, self.path_glob):
            return False
        return self.needle == "*" or self.needle in finding.text


def parse_allowlist(path):
    entries, errors = [], []
    if not os.path.exists(path):
        return entries, errors
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|", 3)]
            if len(parts) != 4 or not all(parts[:3]):
                errors.append(
                    f"{path}:{lineno}: malformed allowlist entry (want "
                    "'RULE | path-glob | line-substring-or-* | justification')"
                )
                continue
            rule, glob, needle, justification = parts
            if rule == "BR-HIDDEN-ENV":
                errors.append(f"{path}:{lineno}: {rule} cannot be allowlisted")
                continue
            if len(justification) < 10:
                errors.append(
                    f"{path}:{lineno}: allowlist entry for {rule} needs a real "
                    "written justification (got "
                    f"{justification!r})"
                )
                continue
            entries.append(AllowEntry(rule, glob, needle, justification, lineno))
    return entries, errors


def collect_files(root, paths):
    files = []
    for p in paths:
        full = os.path.join(root, p)
        if os.path.isfile(full):
            files.append(p)
        elif os.path.isdir(full):
            for dirpath, _, names in os.walk(full):
                for name in sorted(names):
                    if name.endswith(CXX_EXTENSIONS):
                        rel = os.path.relpath(os.path.join(dirpath, name), root)
                        files.append(rel.replace(os.sep, "/"))
        else:
            raise FileNotFoundError(full)
    return sorted(set(files))


def run(root, paths, allowlist_path):
    files = collect_files(root, paths)
    stripped = {}
    spans_by_file = {}
    all_spans = []
    for rel in files:
        with open(os.path.join(root, rel), encoding="utf-8", errors="replace") as f:
            text = strip_comments_and_strings(f.read())
        stripped[rel] = text
        spans = extract_functions(text, rel)
        spans_by_file[rel] = spans
        all_spans.extend(spans)

    reachable = reachable_from_output(all_spans)
    findings = []
    for rel in files:
        findings.extend(scan_file(rel, stripped[rel], reachable, spans_by_file))

    entries, errors = parse_allowlist(allowlist_path)
    kept = []
    for finding in findings:
        suppressed = False
        for entry in entries:
            if entry.matches(finding):
                entry.used = True
                suppressed = True
        if not suppressed:
            kept.append(finding)
    for entry in entries:
        if not entry.used:
            errors.append(
                f"{allowlist_path}:{entry.source_line}: stale allowlist entry "
                f"({entry.rule} | {entry.path_glob} | {entry.needle}) matches "
                "nothing — remove it"
            )
    return kept, errors, len(files)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="repository root (default: repo)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: tools/determinism_lint_allow.txt "
                             "under --root)")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories relative to --root (default: src tools)")
    args = parser.parse_args(argv)

    root = os.path.abspath(args.root)
    paths = args.paths or ["src", "tools"]
    allowlist = args.allowlist or os.path.join(root, "tools", "determinism_lint_allow.txt")

    try:
        findings, errors, file_count = run(root, paths, allowlist)
    except FileNotFoundError as err:
        print(f"determinism_lint: no such path: {err}", file=sys.stderr)
        return 2

    for finding in findings:
        print(finding)
    for error in errors:
        print(f"error: {error}")
    if findings or errors:
        print(
            f"determinism_lint: {len(findings)} finding(s), "
            f"{len(errors)} allowlist error(s). Fix the hazard or add an "
            "allowlist entry with a written justification "
            "(tools/determinism_lint_allow.txt)."
        )
        return 1
    print(f"determinism_lint: clean ({file_count} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
