import pytest
from hypothesis import settings

# Property tests draw the same examples on every run: tier-1 stays
# reproducible, and a slow machine cannot trip a per-example deadline.
settings.register_profile("nilcone", derandomize=True, deadline=None, database=None)
settings.load_profile("nilcone")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, label): acceptance criterion with a printed verdict line"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if rep.when == "call" and marker is not None:
        num, label = marker.args
        capman = item.config.pluginmanager.getplugin("capturemanager")
        line = f"criterion {num:2d} ({label}): {'PASS' if rep.passed else 'FAIL'}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line)
        else:
            print(line)
