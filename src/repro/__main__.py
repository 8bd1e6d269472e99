"""``python -m repro`` — run the Section-8 demonstration end to end.

``python -m repro --trace`` runs the same demo with the observability
layer enabled and, after the demo output, prints the hierarchical span
tree plus the registry-driven metrics summary (see
``repro.obs.render_summary``). CI smoke-tests this path and greps the
output for the ``session.paste`` span and the summary's group lines.
"""

import runpy
import sys
from pathlib import Path


def _run_demo() -> None:
    demo = Path(__file__).resolve().parents[2] / "examples" / "hurricane_relief.py"
    if demo.exists():
        sys.argv = [str(demo)]
        runpy.run_path(str(demo), run_name="__main__")
    else:  # installed without the examples tree: run a minimal inline demo
        from repro import Browser, CopyCatSession, build_scenario

        scenario = build_scenario(seed=5, n_shelters=8)
        session = CopyCatSession(catalog=scenario.catalog)
        browser = Browser(session.clipboard, scenario.website)
        browser.navigate(scenario.list_urls()[0])
        listing = browser.page.dom.find("table", "listing")
        records = [n for n in listing.children if "record" in n.css_classes]
        browser.copy_record(records[0], "Shelters")
        session.paste()
        session.accept_row_suggestions()
        for index, label in enumerate(["Name", "Street", "City"]):
            session.label_column(index, label)
        session.commit_source()
        session.start_integration("Shelters")
        for suggestion in session.column_suggestions():
            print(suggestion.describe())


def _print_observability() -> None:
    from repro import obs
    from repro.analysis.concurrency import conc_stats_line

    print()
    print("=" * 72)
    print("TRACE (hierarchical spans: name, wall/CPU ms, attributes)")
    print("=" * 72)
    for line in obs.render_span_tree(obs.TRACER.roots()):
        print(line)

    print()
    print("=" * 72)
    print("METRICS (one line per registry group, then histograms and knobs)")
    print("=" * 72)
    for line in obs.render_summary():
        print(line)
    print(conc_stats_line())


def main() -> None:
    """Run the Section-8 hurricane-relief demonstration."""
    trace = "--trace" in sys.argv[1:]
    if trace:
        sys.argv = [sys.argv[0]] + [a for a in sys.argv[1:] if a != "--trace"]
        from repro import obs

        obs.reset()
        obs.enable()
    try:
        _run_demo()
    finally:
        if trace:
            from repro import obs

            obs.disable()
            _print_observability()


if __name__ == "__main__":
    main()
