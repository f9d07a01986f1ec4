"""OpenMP race pass for the bfsx kernels.

A narrow, project-specific static checker over every ``#pragma omp``
site. It parses each pragma's clauses and the loop body it governs, and
enforces the determinism/race contracts PR 3 established by hand:

  shared-write     In a worksharing ``for`` loop, a write to a variable
                   that is not loop-local must be covered by a matching
                   ``reduction`` clause, an ``omp atomic``/``critical``,
                   or be an index-deterministic store (a subscript that
                   depends on the loop induction variable or a value
                   derived from it inside the body). Parameters of
                   lambdas defined inside the body count as loop-local:
                   the templated GraphView kernels traverse neighbours
                   through ``for_each_*`` callbacks, so a callback
                   parameter plays the role the range-for variable plays
                   in CSR-style code.
  det-dynamic      Loops annotated ``// det:`` are determinism-critical
                   in *iteration order*; a ``schedule(dynamic)`` there
                   can reorder side effects between runs, so only
                   static schedules are allowed.
  missing-workers  Functions that compute a ``workers`` thread-count
                   override must pass it to every parallel construct
                   via ``num_threads(workers)``; forgetting it silently
                   ignores the small-input serial fallback.
  nowait-read      After a ``for ... nowait`` loop, reading a variable
                   the loop wrote (before the enclosing region's
                   barrier) races with threads still in the loop.

Suppressions keep the historical ``omp-lint`` spelling — they sit on
the pragma they justify and the reasons in src/ predate the analyzer::

    // omp-lint: allow(shared-write) scatter indices are disjoint by
    //           construction (per-thread cursor ranges)

A suppression must name the rule and give a non-empty reason; malformed
annotations are themselves reported (rule ``bad-annotation``).

The ``PASS`` adapter at the bottom plugs ``lint_text`` into the
bfsx-analyze engine; ``tools/analyze/selftest/omp/`` holds the cases
every rule must fire on and the idioms it must stay silent on.

This is a heuristic lint, not a compiler: it trades soundness for zero
build-time dependencies. When it is wrong, say why with an allow()
annotation — that reason is exactly the hand-written race argument the
lint exists to make explicit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

RULES = ("shared-write", "det-dynamic", "missing-workers", "nowait-read",
         "bad-annotation")

ALLOW_RE = re.compile(r"//\s*omp-lint:\s*allow\(([\w-]+)\)\s*(.*)")
DET_RE = re.compile(r"//\s*det:")

# A declaration introducing a body-local name: optional qualifiers, a
# type-ish token (keyword, std::foo, Foo, foo_t, possibly templated),
# optional ref/pointer, then the declared identifier.
DECL_RE = re.compile(
    r"(?:const\s+|constexpr\s+|static\s+)*"
    r"(?:auto|bool|int|unsigned|signed|long|short|float|double|char|"
    r"std::\w+|[A-Za-z_]\w*(?:::\w+)+|[A-Za-z_]\w*_t|[A-Z]\w*)"
    r"(?:<[^;<>(){}]*>)?"
    r"\s*[&*]*\s+([A-Za-z_]\w*)\s*(?:=|\{|:(?!:))")

# Bare-identifier mutation: `x = ...`, `x += ...`, `++x`, `x--`, ...
BARE_ASSIGN_RE = re.compile(
    r"(?<![\w.\]>])([A-Za-z_]\w*)\s*"
    r"(\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|=(?![=]))")
INCDEC_RE = re.compile(
    r"(?:\+\+|--)\s*([A-Za-z_]\w*)|(?<![\w.\]>])([A-Za-z_]\w*)\s*(?:\+\+|--)")

# Subscripted store: `base[index] = ...` where base may be dotted
# (`state.parent`). The index expression is captured for the
# loop-derivation test.
SUBSCRIPT_ASSIGN_RE = re.compile(
    r"([A-Za-z_][\w.]*(?:->[\w.]*)?)\s*\[([^\]]*)\]\s*"
    r"(?:\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=|=(?![=]))")

# A lambda's parameter list: capture clause immediately followed by
# parentheses. Parameters declared there are iteration-local values fed
# by whatever the body invokes the lambda on (the GraphView
# for_each_out_neighbor / for_each_in_neighbor protocol).
LAMBDA_PARAMS_RE = re.compile(r"\[[^\[\]]*\]\s*\(([^()]*)\)")

REDUCTION_RE = re.compile(r"reduction\s*\(\s*[^:()]+:\s*([^)]*)\)")
SCHEDULE_RE = re.compile(r"schedule\s*\(\s*(\w+)")
NUM_THREADS_RE = re.compile(r"num_threads\s*\(")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")

CONTROL_KEYWORDS = frozenset({
    "if", "while", "for", "switch", "return", "sizeof", "case", "else",
    "do", "break", "continue", "goto", "new", "delete", "throw", "catch",
})


@dataclass
class Violation:
    path: str
    line: int  # 1-based pragma line
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Pragma:
    line: int          # 1-based line of the `#pragma omp`
    text: str          # continuation-joined pragma text
    end_line: int      # last (0-based) line index of the pragma itself
    allows: dict = field(default_factory=dict)  # rule -> reason
    det: bool = False


def _strip_line_comment(line: str) -> str:
    """Removes // comments and string/char literal contents (keeps
    delimiters) so identifier scans do not see prose."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        ch = line[i]
        if in_str:
            if ch == "\\":
                i += 2
                continue
            if ch == in_str:
                in_str = None
                out.append(ch)
                i += 1
                continue
            i += 1
            continue
        if ch in "\"'":
            in_str = ch
            out.append(ch)
            i += 1
            continue
        if ch == "/" and i + 1 < n and line[i + 1] == "/":
            break
        out.append(ch)
        i += 1
    return "".join(out)


def _find_pragmas(lines: list[str]) -> list[Pragma]:
    pragmas = []
    i = 0
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped.startswith("#pragma omp"):
            text = stripped
            end = i
            while text.endswith("\\") and end + 1 < len(lines):
                end += 1
                text = text[:-1].rstrip() + " " + lines[end].strip()
            p = Pragma(line=i + 1, text=text, end_line=end)
            # Annotations live on the pragma line or up to 2 lines above.
            for j in range(max(0, i - 2), i + 1):
                m = ALLOW_RE.search(lines[j])
                if m:
                    p.allows[m.group(1)] = m.group(2).strip()
                if DET_RE.search(lines[j]):
                    p.det = True
            # A determinism annotation may also sit atop the comment
            # block immediately above; scan a short comment run.
            j = i - 1
            while j >= 0 and lines[j].strip().startswith("//"):
                if DET_RE.search(lines[j]):
                    p.det = True
                m = ALLOW_RE.search(lines[j])
                if m and m.group(1) not in p.allows:
                    p.allows[m.group(1)] = m.group(2).strip()
                j -= 1
            pragmas.append(p)
            i = end + 1
            continue
        i += 1
    return pragmas


def _skip_preprocessor(lines: list[str], i: int) -> int:
    """First line index >= i that is code (not blank/preprocessor)."""
    while i < len(lines):
        s = lines[i].strip()
        if s and not s.startswith("#") and not s.startswith("//"):
            return i
        i += 1
    return len(lines)


def _match_region(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index just past the delimiter balancing text[start] == open_ch."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def _governed_block(lines: list[str], pragma: Pragma):
    """Returns (kind, loop_var, body, after_start) for the statement the
    pragma governs. kind is 'for' or 'block'; body is the statement
    text; after_start is the flat-text offset just past the body."""
    start = _skip_preprocessor(lines, pragma.end_line + 1)
    flat = "\n".join(_strip_line_comment(l) for l in lines[start:])
    m = re.match(r"\s*for\s*\(", flat)
    if m and ("for" in pragma.text.split()):
        header_end = _match_region(flat, m.end() - 1, "(", ")")
        header = flat[m.end():header_end - 1]
        loop_var = None
        vm = re.match(r"\s*(?:[\w:<>]+(?:\s*[&*])?\s+)?([A-Za-z_]\w*)\s*[=:]",
                      header)
        if vm:
            loop_var = vm.group(1)
        rest = flat[header_end:]
        bm = re.match(r"\s*\{", rest)
        if bm:
            body_end = _match_region(rest, bm.end() - 1, "{", "}")
            body = rest[:body_end]
        else:
            body_end = rest.find(";") + 1
            body = rest[:body_end]
        return "for", loop_var, header + "\n" + body, header_end + body_end
    bm = re.match(r"\s*\{", flat)
    if bm:
        body_end = _match_region(flat, bm.end() - 1, "{", "}")
        return "block", None, flat[:body_end], body_end
    # Single statement (e.g. `#pragma omp atomic` target).
    end = flat.find(";") + 1
    return "stmt", None, flat[:end], end


def _reduction_vars(pragma_text: str) -> set[str]:
    out = set()
    for m in REDUCTION_RE.finditer(pragma_text):
        out.update(v.strip() for v in m.group(1).split(",") if v.strip())
    return out


def _body_locals(body: str) -> set[str]:
    names = {m.group(1) for m in DECL_RE.finditer(body)}
    for m in LAMBDA_PARAMS_RE.finditer(body):
        for param in m.group(1).split(","):
            idents = IDENT_RE.findall(param)
            if idents:
                names.add(idents[-1])  # `vid_t v` declares v
    return names - CONTROL_KEYWORDS


def _enclosing_function(lines: list[str], pragma_line0: int) -> str:
    """Text from the start of the enclosing function (first column-0
    code line scanning upward) to the pragma."""
    start = 0
    for j in range(pragma_line0 - 1, -1, -1):
        line = lines[j]
        if line and not line[0].isspace():
            s = line.strip()
            if s.startswith(("//", "#", "}", "{")) or s.endswith(";"):
                if s == "}" or s.startswith("}"):
                    start = j + 1
                    break
                continue
            start = j
            break
    return "\n".join(lines[start:pragma_line0])


def _enclosing_parallel(pragmas: list[Pragma], pragma: Pragma):
    """Nearest preceding `parallel` (non-for) pragma — the region a bare
    `for`/worksharing pragma binds to, approximately."""
    best = None
    for p in pragmas:
        if p.line >= pragma.line:
            break
        words = p.text.split()
        if "parallel" in words and "for" not in words:
            best = p
    return best


def _covered_by_sync(body: str, name: str) -> bool:
    """True when every mutation of `name` in the body sits under an
    `omp atomic` or inside an `omp critical` block (coarse: presence of
    the pragma in the preceding line)."""
    lines = body.split("\n")
    for i, line in enumerate(lines):
        hits = [m.group(1) for m in BARE_ASSIGN_RE.finditer(line)]
        hits += [m.group(1) or m.group(2) for m in INCDEC_RE.finditer(line)]
        if name not in hits:
            continue
        window = "\n".join(lines[max(0, i - 2):i])
        if "#pragma omp atomic" in window or "#pragma omp critical" in window:
            continue
        return False
    return True


def _loop_derived(index_expr: str, loop_var: str, locals_: set[str]) -> bool:
    """Is the subscript expression derived from the loop (directly via
    the induction variable or via a body-local)?"""
    idents = set(IDENT_RE.findall(index_expr))
    if loop_var and loop_var in idents:
        return True
    return bool(idents & locals_)


def lint_text(text: str, path: str = "<string>") -> list[Violation]:
    lines = text.split("\n")
    pragmas = _find_pragmas(lines)
    violations: list[Violation] = []

    def report(pragma: Pragma, rule: str, message: str) -> None:
        if rule in pragma.allows:
            if not pragma.allows[rule]:
                violations.append(Violation(
                    path, pragma.line, "bad-annotation",
                    f"allow({rule}) has no reason; justify the suppression"))
            return
        violations.append(Violation(path, pragma.line, rule, message))

    for pragma in pragmas:
        for rule, reason in pragma.allows.items():
            if rule not in RULES:
                violations.append(Violation(
                    path, pragma.line, "bad-annotation",
                    f"allow({rule}) names an unknown rule "
                    f"(known: {', '.join(RULES[:-1])})"))
        words = pragma.text.split()
        is_parallel = "parallel" in words
        is_for = "for" in words
        kind, loop_var, body, after_start = _governed_block(lines, pragma)

        # ---- missing-workers ------------------------------------------
        if is_parallel:
            region = _enclosing_function(lines, pragma.line - 1)
            if re.search(r"\bworkers\b", region) and \
                    not NUM_THREADS_RE.search(pragma.text):
                report(pragma, "missing-workers",
                       "function computes a `workers` override but this "
                       "parallel construct does not pass "
                       "num_threads(workers)")

        # ---- det-dynamic ----------------------------------------------
        sched = SCHEDULE_RE.search(pragma.text)
        if pragma.det and sched and sched.group(1) == "dynamic":
            report(pragma, "det-dynamic",
                   "loop is annotated `// det:` (iteration order is part "
                   "of the determinism contract) but uses "
                   "schedule(dynamic); use a static schedule")

        # ---- shared-write ---------------------------------------------
        if is_for and kind == "for":
            reductions = _reduction_vars(pragma.text)
            if not is_parallel:
                enclosing = _enclosing_parallel(pragmas, pragma)
                if enclosing is not None:
                    reductions |= _reduction_vars(enclosing.text)
            locals_ = _body_locals(body)
            safe = reductions | locals_
            if loop_var:
                safe.add(loop_var)
            flagged = set()
            for m in BARE_ASSIGN_RE.finditer(body):
                name = m.group(1)
                if name in safe or name in CONTROL_KEYWORDS or name in flagged:
                    continue
                if _covered_by_sync(body, name):
                    continue
                flagged.add(name)
                report(pragma, "shared-write",
                       f"`{name}` is written by every iteration but is "
                       f"neither loop-local nor in a reduction clause; "
                       f"add reduction(...: {name}), an omp atomic, or "
                       f"make the store index-deterministic")
            for m in INCDEC_RE.finditer(body):
                name = m.group(1) or m.group(2)
                if name in safe or name in CONTROL_KEYWORDS or name in flagged:
                    continue
                if _covered_by_sync(body, name):
                    continue
                flagged.add(name)
                report(pragma, "shared-write",
                       f"`{name}` is incremented concurrently without a "
                       f"reduction or atomic")
            for m in SUBSCRIPT_ASSIGN_RE.finditer(body):
                base, index = m.group(1), m.group(2)
                base_root = base.split(".")[0].split("->")[0]
                if base_root in locals_:
                    continue
                if not _loop_derived(index, loop_var, locals_):
                    key = f"{base}[{index}]"
                    if key in flagged:
                        continue
                    flagged.add(key)
                    report(pragma, "shared-write",
                           f"store to `{base}[{index}]` uses a "
                           f"loop-independent index: two iterations can "
                           f"hit the same element; derive the index from "
                           f"the loop variable or synchronise")

        # ---- nowait-read ----------------------------------------------
        if is_for and "nowait" in words and kind == "for":
            enclosing = _enclosing_parallel(pragmas, pragma)
            if enclosing is not None:
                written = {m.group(1) for m in BARE_ASSIGN_RE.finditer(body)}
                written |= {m.group(1) or m.group(2)
                            for m in INCDEC_RE.finditer(body)}
                written -= _body_locals(body)
                if loop_var:
                    written.discard(loop_var)
                # Text between the end of this loop and the end of the
                # enclosing parallel block.
                _, _, region_body, _ = _governed_block(lines, enclosing)
                loop_start = _skip_preprocessor(lines, pragma.end_line + 1)
                flat_from_loop = "\n".join(
                    _strip_line_comment(l) for l in lines[loop_start:])
                tail = flat_from_loop[after_start:]
                region_start = _skip_preprocessor(lines, enclosing.end_line + 1)
                flat_from_region = "\n".join(
                    _strip_line_comment(l) for l in lines[region_start:])
                region_end_off = len(region_body)
                # Clip the tail at the parallel region's closing brace.
                tail_limit = max(
                    0, region_end_off - (after_start +
                                         (len(flat_from_region) -
                                          len(flat_from_loop))))
                tail = tail[:tail_limit]
                for name in sorted(written):
                    if re.search(rf"\b{re.escape(name)}\b", tail):
                        report(pragma, "nowait-read",
                               f"`{name}` is written by this nowait loop "
                               f"and read again before the region's "
                               f"barrier; drop nowait or move the read "
                               f"past the region")
    return violations


class OmpPass:
    """bfsx-analyze adapter: same checker, engine-shaped findings.

    ``lint_text`` already consumed ``// omp-lint: allow`` suppressions
    (they live on the pragma and predate the analyzer), so what it
    returns is final; ``// analyze: allow(...)`` works on top for
    uniformity but is not the preferred spelling for these four rules.
    """

    name = "omp"
    rules = {
        "shared-write":
            "non-loop-local write in a worksharing loop without "
            "reduction/atomic/index-deterministic store",
        "det-dynamic":
            "schedule(dynamic) on a loop annotated `// det:`",
        "missing-workers":
            "parallel construct ignores the function's `workers` "
            "thread-count override",
        "nowait-read":
            "variable written by a nowait loop is read before the "
            "region's barrier",
        "bad-annotation":
            "malformed or reasonless // omp-lint: allow(...) annotation",
    }
    scope = ("src", "bench")

    def run(self, ctx):
        findings = []
        for sf in ctx.files:
            for v in lint_text(sf.text, sf.rel):
                findings.append(ctx.finding(
                    self.name, v.rule, sf, v.line, v.message))
        return findings


PASS = OmpPass()
