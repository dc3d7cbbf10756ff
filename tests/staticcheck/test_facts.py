"""Whole-program facts layer: call resolution, lock tokens, blocking ops.

These pin the engine underneath the interprocedural rule — the parts
whose failure modes are silent (a call that stops resolving makes
``blocking-under-lock`` quietly blind).
"""

import ast

from repro.staticcheck.facts import (
    FIXPOINT_CAP,
    extract_module_facts,
    link,
    module_name_for,
)


def project(files):
    return link(extract_module_facts(rel, ast.parse(text)) for rel, text in files.items())


class TestCallResolution:
    def test_self_calls_resolve_through_the_mro(self):
        p = project(
            {
                "a.py": (
                    "class Base:\n"
                    "    def run(self):\n"
                    "        self.hook()\n"
                    "    def hook(self):\n"
                    "        pass\n"
                )
            }
        )
        run = p.functions["a.Base.run"]
        assert p.resolve_call(run, "self.hook") == ("a.Base.hook",)

    def test_self_calls_fan_out_to_subclass_overrides(self):
        # Base.run -> self.hook() may dispatch to any project subclass's
        # override: the engine must see Leaf.hook or miss everything the
        # override acquires/blocks on.
        p = project(
            {
                "a.py": (
                    "class Base:\n"
                    "    def run(self):\n"
                    "        self.hook()\n"
                    "    def hook(self):\n"
                    "        pass\n"
                    "class Leaf(Base):\n"
                    "    def hook(self):\n"
                    "        pass\n"
                )
            }
        )
        run = p.functions["a.Base.run"]
        assert p.resolve_call(run, "self.hook") == ("a.Base.hook", "a.Leaf.hook")

    def test_cross_module_calls_resolve_via_both_import_forms(self):
        p = project(
            {
                "a.py": (
                    "import b\n"
                    "from b import helper\n"
                    "def caller():\n"
                    "    b.func()\n"
                    "    helper()\n"
                ),
                "b.py": "def func():\n    pass\ndef helper():\n    pass\n",
            }
        )
        caller = p.functions["a.caller"]
        assert p.resolve_call(caller, "b.func") == ("b.func",)
        assert p.resolve_call(caller, "helper") == ("b.helper",)

    def test_unknown_names_resolve_to_nothing(self):
        p = project({"a.py": "def caller():\n    mystery()\n"})
        caller = p.functions["a.caller"]
        assert p.resolve_call(caller, "mystery") == ()
        assert p.resolve_call(caller, "np.zeros") == ()


class TestTransitiveSummaries:
    def test_mutual_recursion_terminates_and_converges(self):
        # f <-> g recurse into each other; the bounded fixpoint must stop
        # and both must still carry the blocking operation.
        p = project(
            {
                "r.py": (
                    "import time\n"
                    "def f():\n"
                    "    time.sleep(1)\n"
                    "    g()\n"
                    "def g():\n"
                    "    f()\n"
                )
            }
        )
        trans = p.transitive_blocking()
        assert trans["r.f"] == frozenset({("time.sleep", None)})
        assert trans["r.g"] == frozenset({("time.sleep", None)})
        assert FIXPOINT_CAP >= 2  # the bound the loop relies on

    def test_blocking_propagates_with_its_exemption(self):
        p = project(
            {
                "r.py": (
                    "import time\n"
                    "def nap():\n"
                    "    time.sleep(1)\n"
                    "def caller():\n"
                    "    nap()\n"
                )
            }
        )
        trans = p.transitive_blocking()
        assert ("time.sleep", None) in trans["r.caller"]


class TestLockTokens:
    def test_condition_aliases_its_lock(self):
        p = project(
            {
                "r.py": (
                    "import threading\n"
                    "class C:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self._cond = threading.Condition(self._lock)\n"
                )
            }
        )
        assert p.class_guard_token("r.C", "_lock") == p.class_guard_token(
            "r.C", "_cond"
        )

    def test_subclass_uses_converge_on_the_defining_class(self):
        # SessionPool._lock and ShardedPool._lock are the *same* token —
        # the one ReplicaPool defines — not one identity per subclass.
        p = project(
            {
                "r.py": (
                    "import threading\n"
                    "class Base:\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "class Leaf(Base):\n"
                    "    pass\n"
                )
            }
        )
        token = p.class_guard_token("r.Leaf", "_lock")
        assert token == p.class_guard_token("r.Base", "_lock")
        assert token is not None and token.startswith("r.Base.")


class TestBlockingClassification:
    def _ops(self, body):
        mod = extract_module_facts(
            "x.py",
            ast.parse(f"import os, time\ndef ops(conn, q, d, h, items, t):\n{body}"),
        )
        return [b.label for b in mod.functions["x.ops"].blocking]

    def test_always_blocking_channel_ops(self):
        assert self._ops("    conn.recv()\n") == ["Connection.recv"]
        assert self._ops("    time.sleep(1)\n") == ["time.sleep"]

    def test_get_distinguishes_queue_from_dict(self):
        assert self._ops("    q.get()\n") == ["queue.get"]
        assert self._ops('    d.get("k")\n') == []
        assert self._ops('    d.get("k", None)\n') == []

    def test_join_excludes_path_and_string_joins(self):
        assert self._ops("    t.join()\n") == ["t.join()"]
        assert self._ops('    os.path.join("a", "b")\n') == []
        assert self._ops('    ", ".join(items)\n') == []

    def test_poll_blocks_only_with_a_real_timeout(self):
        assert self._ops("    h.poll(0)\n") == []
        assert self._ops("    h.poll(t.timeout)\n") == ["Connection.poll"]


class TestModuleNames:
    def test_src_prefix_and_init_are_normalised(self):
        assert module_name_for("src/repro/api/server.py") == "repro.api.server"
        assert module_name_for("src/repro/api/__init__.py") == "repro.api"
        assert module_name_for("a.py") == "a"
