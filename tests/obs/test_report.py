"""The self-contained HTML run report."""

import pytest

from dataclasses import replace

from repro import quick_demo
from repro.experiments.configs import demo_config
from repro.experiments.runner import build_live_run
from repro.obs import ObsConfig
from repro.obs.forensics import attribute_lateness
from repro.obs.report import render_report, write_report


@pytest.fixture(scope="module")
def traced_run():
    """One traced demo run shared across the module's tests."""
    config = replace(demo_config(), obs=ObsConfig(trace=True))
    run = build_live_run(config, replication=3)
    metrics = run.finish()
    return metrics, run.resources, run.tracer.recorder.events


def test_report_is_self_contained(traced_run, tmp_path):
    metrics, resources, events = traced_run
    out = tmp_path / "report.html"
    write_report(str(out), metrics, resources=resources, events=events)
    html = out.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "<script" not in html
    assert 'src="http' not in html and 'href="http' not in html
    assert "@import" not in html and "url(" not in html


def test_report_sections_render(traced_run):
    metrics, resources, events = traced_run
    html = render_report(metrics, resources=resources, events=events)
    assert html.count("<svg") >= 2  # Gantt + utilization
    assert "Cluster Gantt" in html
    assert "Utilization" in html
    assert "O · overhead/job" in html  # stat tiles
    # every task bar ships a native tooltip
    assert "<title>" in html


def test_metrics_only_report():
    """Only RunMetrics: tiles render, chart sections degrade gracefully."""
    metrics = quick_demo(seed=1)
    html = render_report(metrics)
    assert "O · overhead/job" in html
    assert "Cluster Gantt" not in html


def test_attribution_waterfall_renders(traced_run):
    metrics, resources, events = traced_run
    jobs_stub = []  # no late jobs in the happy-path demo run
    attributions = attribute_lateness(metrics, jobs_stub, events)
    html = render_report(
        metrics, resources=resources, events=events, attributions=attributions
    )
    assert "Why were the late jobs late?" in html
    if not attributions:
        assert "every deadline was met" in html


def test_title_is_escaped():
    metrics = quick_demo(seed=1)
    html = render_report(metrics, title='<script>alert("x")</script>')
    assert "<script>" not in html
    assert "&lt;script&gt;" in html


def test_dark_mode_palette_present(traced_run):
    metrics, _, _ = traced_run
    html = render_report(metrics)
    assert "prefers-color-scheme: dark" in html
    assert "--surface-1: #1a1a19" in html  # selected dark steps, not inverted
