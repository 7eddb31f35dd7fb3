"""Census of comparison sorts over ids under ``src/repro``.

Every grouping of row, column or block ids goes through
``repro.data.ratings.stable_order`` — a radix pass, linear where
``np.lexsort`` and ``np.argsort(kind="stable")`` on int64 are not.  The
test pins the *exact* calls of those two that remain, each with why it
stays, so a new comparison sort over ids fails here instead of arriving
unnoticed.  (An ``argsort`` without ``kind="stable"`` orders values,
not ids, and is not counted.)
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``(file, call)`` -> how many, and why they are not ``stable_order``
KNOWN_SORTS = {
    # the primitive: each radix pass is NumPy's counting sort over uint16
    ("data/ratings.py", "argsort-stable"): 1,
    # ``_select_row`` orders (index, -score): the key is a float
    ("serving/scorer.py", "lexsort"): 2,
}


def comparison_sorts(tree: ast.AST):
    """``"lexsort"`` / ``"argsort-stable"`` for each such call in ``tree``."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "lexsort":
            yield "lexsort"
        elif node.func.attr == "argsort" and any(
            kw.arg == "kind" and isinstance(kw.value, ast.Constant) and kw.value.value == "stable"
            for kw in node.keywords
        ):
            yield "argsort-stable"


def test_the_walker_sees_both_spellings():
    tree = ast.parse(
        "a = np.lexsort((c, r))\n"
        "b = np.argsort(x, kind='stable')\n"
        "c = x.argsort(kind='stable')\n"
        "d = np.argsort(scores)[::-1]\n"
    )
    assert sorted(comparison_sorts(tree)) == ["argsort-stable", "argsort-stable", "lexsort"]


def test_ids_are_grouped_by_the_primitive_alone():
    found = Counter(
        (path.relative_to(SRC).as_posix(), call)
        for path in sorted(SRC.rglob("*.py"))
        for call in comparison_sorts(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert dict(found) == KNOWN_SORTS
