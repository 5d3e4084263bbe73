"""Answer checks that do not trust the package.

Tree answers are checked against O(n) counting recurrences run on the
generator's own parent array; V-poset answers against the same counts run on
the generator's construction trace; a reported forbidden pattern against the
generator's closed order.  Each check returns a list of problems, empty when
the answer is right.
"""

from __future__ import annotations

from gen import EMPTY, PosetInput, TreeInput

# Evaluation point -> (value at a single vertex or element, base b for the
# b**(size-1) term a new top contributes).  The counting meaning of each
# point is in its comment.
POINTS = {
    (1, 1): (1, 1),  # maximal antichains
    (0, 1): (0, 1),  # maximal antichains avoiding leaves / basic elements
    (2, 1): (2, 1),  # antichains, counting the empty one
    (1, 2): (1, 2),  # cutsets: sets meeting every maximal chain
}

SERIES_PREFIX = (1, 1, 2, 5, 14, 40, 121, 373, 1184)
RHO_INV = 3.79599
CONSTANT = 0.726213
ASYMPTOTIC_TOL = 1e-4


def tree_counts(parents) -> tuple[dict, int]:
    """Counts at each point in POINTS and the leaf count, by one bottom-up pass.

    A vertex v with children c_1..c_k has (product of the children's counts)
    plus b**(size(v) - 1) at the point (a, b), where the second term counts
    the choices that use v itself; a leaf has a.
    """
    n = len(parents)
    size = [1] * n
    has_kids = [False] * n
    for v in range(n - 1, 0, -1):
        size[parents[v]] += size[v]
        has_kids[parents[v]] = True
    out = {}
    for point, (leaf, base) in POINTS.items():
        prod = [1] * n
        value = [0] * n
        for v in range(n - 1, -1, -1):
            value[v] = prod[v] + base ** (size[v] - 1) if has_kids[v] else leaf
            if v:
                prod[parents[v]] *= value[v]
        out[point] = value[0]
    out[(2, 2)] = 2**n
    return out, n - sum(has_kids)


def trace_counts(trace) -> tuple[dict, int]:
    """Counts at each point in POINTS and the basic-element count of a V-poset trace.

    The empty poset has 1, a disjoint union the product, and adding a top or
    bottom element to a nonempty P adds b**|P| (the choices using the new
    element); a single element has a.  Each single element of the trace
    contributes one basic element.
    """
    out = {point: _trace_value(trace, leaf, base)[1] for point, (leaf, base) in POINTS.items()}
    size, singles = _trace_shape(trace)
    out[(2, 2)] = 2**size
    return out, singles


def _trace_value(trace, leaf: int, base: int) -> tuple[int, int]:
    op = trace[0]
    if op == "e":
        return 0, 1
    if op == "p":
        raise ValueError("a trace with a planted pattern is not a V-poset")
    if op == "u":
        size, value = 0, 1
        for part in trace[1]:
            s, v = _trace_value(part, leaf, base)
            size, value = size + s, value * v
        return size, value
    s, v = _trace_value(trace[1], leaf, base)
    return s + 1, (v + base**s if s else leaf)


def _trace_shape(trace) -> tuple[int, int]:
    """Element count and number of single-element steps of a V-poset trace."""
    op = trace[0]
    if op == "e":
        return 0, 0
    if op == "p":
        raise ValueError("a trace with a planted pattern is not a V-poset")
    if op == "u":
        shapes = [_trace_shape(part) for part in trace[1]]
        return sum(s for s, _ in shapes), sum(b for _, b in shapes)
    s, b = _trace_shape(trace[1])
    return s + 1, b + (s == 0)


def _compare(values: dict, expected: dict, problems: list[str]) -> None:
    for point, want in expected.items():
        got = values.get(point)
        if got != want:
            problems.append(f"P{point} = {got}, expected {want}")


def _check_x_power(poly, exponent: int, what: str, problems: list[str]) -> None:
    triples = poly.canonical_triples() if poly is not None else None
    if triples != [(1, exponent, 0)]:
        problems.append(f"P(x,0) = {poly}, expected x^{exponent} ({what})")


def check_tree(item: TreeInput, out: dict) -> list[str]:
    """A tree-stream answer: six evaluations and the canonical text."""
    problems: list[str] = []
    expected, leaves = tree_counts(item.parents)
    _compare(out["values"], expected, problems)
    _check_x_power(out["x0"], leaves, "leaves", problems)
    n = item.size
    # The root alone is the only antichain with n-1 vertices below it, so
    # the canonical text starts with that term.
    if n > 1:
        top = "y" if n == 2 else f"y^{n - 1}"
        if not (out["text"] == top or out["text"].startswith(top + " ")):
            problems.append(f"text does not start with {top!r}")
    return problems


def less(up, a: int, b: int) -> bool:
    return bool((up[a] >> b) & 1)


def check_pattern(up, pattern) -> list[str]:
    """The quadruple is an induced N or bowtie of the order `up`."""
    u, v, w, x = pattern.u, pattern.v, pattern.w, pattern.x
    if len({u, v, w, x}) != 4 or not all(0 <= e < len(up) for e in (u, v, w, x)):
        return [f"pattern elements {(u, v, w, x)} are not four distinct elements"]
    problems = []
    for lo, hi in ((w, u), (x, u), (x, v)):
        if not less(up, lo, hi):
            problems.append(f"pattern needs {lo} < {hi}")
    for a, b in ((u, v), (w, x)):
        if less(up, a, b) or less(up, b, a):
            problems.append(f"pattern needs {a} || {b}")
    kind = "bowtie" if less(up, w, v) else "N"
    if pattern.kind != kind:
        problems.append(f"pattern kind {pattern.kind!r}, the elements form {kind!r}")
    return problems


def check_poset(item: PosetInput, out: dict) -> list[str]:
    """A poset-stream answer: certificate, then polynomial data for V-posets."""
    cert = out["certificate"]
    if item.planted is not None:
        if not hasattr(cert, "kind"):
            return [f"planted {item.planted} but got a construction trace"]
        return check_pattern(item.up, cert)
    if hasattr(cert, "kind"):
        return [f"V-poset reported as not one: {cert}"]
    problems = []
    if cert.size != item.size:
        problems.append(f"certificate builds {cert.size} elements, input has {item.size}")
    expected, basics = trace_counts(item.trace)
    _compare(out["values"], expected, problems)
    _check_x_power(out["x0"], basics, "basic elements", problems)
    status = out["status"]
    if len(status) != item.size or any(s not in ("basic", "upper", "lower") for s in status):
        problems.append("element_status has an element that is not basic, upper or lower")
    elif status.count("basic") != basics:
        problems.append(f"{status.count('basic')} basic elements, expected {basics}")
    return problems


def check_oracle(item, out: dict) -> list[str]:
    """An oracle-stream answer: every brute-force oracle agrees with the polynomial."""
    problems = []
    if out["expansion"] != out["poly"]:
        problems.append("antichain expansion differs from the polynomial")
    for point, count in out["oracles"]:
        if out["values"][point] != count:
            problems.append(f"P{point} = {out['values'][point]}, oracle says {count}")
    if isinstance(item, TreeInput):
        expected, basics = tree_counts(item.parents)
    else:
        expected, basics = trace_counts(item.trace)
    _compare(out["values"], expected, problems)
    _check_x_power(out["x0"], basics, "leaves or basic elements", problems)
    return problems


def rooted_tree_counts(n_max: int) -> list[int]:
    """Unlabelled rooted trees by size, r[0..n_max], by the Cayley recurrence."""
    r = [0, 1] + [0] * (n_max - 1)
    for n in range(2, n_max + 1):
        total = 0
        for k in range(1, n):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[n - k]
        r[n] = total // (n - 1)
    return r[: n_max + 1]
