import pytest

import spans


def test_self_time_on_a_synthetic_span_tree():
    tracer = spans.Tracer()
    tracer.spans.extend([
        ["cli.main", 0.0, 10.0, -1, 0, True],
        ["classfun.class_table", 1.0, 5.0, 0, 0, True],
        ["perm.generate", 2.0, 3.0, 1, 0, True],
        ["classfun.class_table", 6.0, 9.0, 0, 0, True],
        ["classfun.class_table", 7.0, 8.0, 3, 0, False],
    ])
    summary = tracer.summary()
    assert summary["layers"] == {
        "cli": [3.0, 1],
        "classfun": [3.0 + 2.0 + 1.0, 3],
        "perm": [1.0, 1],
    }
    # the nested call inside another class_table call is not counted twice
    assert summary["names"]["classfun.class_table"] == [7.0, 3]
    assert summary["spanned_s"] == 10.0
    assert sum(v[0] for v in summary["layers"].values()) == summary["spanned_s"]


def _holds(value, ids):
    """Whether ``value``, or a tuple or list inside it, is one of ``ids``."""
    if id(value) in ids:
        return True
    return isinstance(value, (tuple, list)) and any(_holds(v, ids) for v in value)


def _snapshot():
    return {m.__name__: dict(vars(m)) for m in spans.package_modules()}


def test_install_rebinds_every_alias_and_uninstall_restores(capsys):
    from transchrome import accept, classfun, cli

    before = _snapshot()
    originals = spans.traced_functions()
    tracer = spans.Tracer().install()
    try:
        ids = {id(f) for f in tracer.originals.values()}
        assert ids >= {id(f) for f in originals.values()}
        for module in spans.package_modules():
            for key, value in vars(module).items():
                assert not _holds(value, ids), "%s.%s" % (module.__name__, key)
        for alias in (accept.class_table, cli.class_table, classfun.classify, classfun.realize):
            assert alias.__wrapped__ in originals.values()
        assert accept.CRITERIA[0][2].__wrapped__ is originals["accept.criterion_01_class_counts"]

        assert cli.main(["count-sub", "--h", "2", "--p", "2", "--m", "1", "--json"]) == 0
        rows = tracer.span_rows()
        names = [row[0] for row in rows]
        assert names[0] == "cli.main"
        assert rows[names.index("abelian.count_sublattices")][3] == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    after = _snapshot()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        for key, value in namespace.items():
            assert after[name][key] is value, "%s.%s" % (name, key)
    assert isinstance(vars(classfun.GenericClassTable)["key_of_images"], type(lambda: 0))


def test_removed_caches_are_reported_absent(monkeypatch):
    from transchrome import classfun

    monkeypatch.delattr(classfun, "_coset_system")
    monkeypatch.setattr(classfun, "class_table", lambda group, lam: None)
    counters = spans.cache_counters()
    assert {"classfun._coset_system", "classfun.class_table"} <= set(counters["absent"])
    assert counters["class_table_misses"] is None
    assert counters["hits"] >= 0 and counters["misses"] >= 0


def test_tracing_twice_is_refused():
    tracer = spans.Tracer().install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
