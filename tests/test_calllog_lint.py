"""Source lint: a logged call's key and result change only through its log.

``CallLogEntry`` carries no attribute hook: building one is plain slot
stores, which keeps the logged dispatch cheap.  The price is that an
assignment such as ``entry.key = fd`` on an entry already in a log
would bypass the log's per-key index and space accounting and leave
both silently stale.  So every late assignment goes through
``ComponentCallLog.rekey`` / ``set_result`` (or ``complete`` /
``retire``), and this test walks ``src/repro`` and rejects any other
store to ``.key`` or ``.result``: attribute assignments (plain,
augmented, annotated, unpacking) and ``setattr`` calls naming either
field.  ``core/calllog.py`` owns the entries and is exempt; stores
through ``self`` are a class's own fields, not a log entry's.
"""

from __future__ import annotations

import ast
import os

import repro

_SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))

#: the module that owns log entries and their accounting
_OWNER = os.path.join("core", "calllog.py")

_FIELDS = {"key", "result"}


def _offenses(tree: ast.AST):
    """(line, text) for every store to ``.key``/``.result`` in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            targets = []
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute)
                        and sub.attr in _FIELDS
                        and isinstance(sub.ctx, ast.Store)
                        and not (isinstance(sub.value, ast.Name)
                                 and sub.value.id == "self")):
                    yield node.lineno, ast.unparse(sub)
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if (name in ("setattr", "__setattr__") and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in _FIELDS):
                yield node.lineno, ast.unparse(node)


def _python_sources():
    for dirpath, _dirnames, filenames in os.walk(_SRC_ROOT):
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                yield os.path.relpath(path, _SRC_ROOT), path


def test_no_entry_key_or_result_stores_outside_calllog():
    offenses = []
    for rel, path in _python_sources():
        if rel == _OWNER:
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        offenses += [f"{rel}:{line}: {text}"
                     for line, text in _offenses(tree)]
    assert not offenses, (
        "store(s) to a log entry's key/result outside core/calllog.py — "
        "use ComponentCallLog.rekey / set_result:\n  "
        + "\n  ".join(offenses))


def test_lint_catches_every_store_form():
    planted = [
        "entry.key = result",
        "entry.result = 1",
        "entry.key += 1",
        "entry.result: int = 1",
        "entry.key, other = 1, 2",
        "log.entries[0].result = None",
        "setattr(entry, 'key', 3)",
        "object.__setattr__(entry, 'result', 3)",
    ]
    for source in planted:
        assert list(_offenses(ast.parse(source))), source
    allowed = ["self.key = key", "value = entry.key",
               "log.rekey(entry, 3)", "setattr(entry, 'completed', True)"]
    for source in allowed:
        assert not list(_offenses(ast.parse(source))), source


def test_owner_module_still_exists():
    """If call-log entries move, the exemption must move too."""
    assert os.path.exists(os.path.join(_SRC_ROOT, _OWNER))
