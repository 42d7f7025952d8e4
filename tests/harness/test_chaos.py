"""The chaos campaigns' in-process scenarios, played as the CLI plays them.

The subprocess scenarios (daemon, worker and coordinator SIGKILLs) run
in CI's chaos job; these run here so a harness regression shows up in
the unit tests too.
"""

import pytest

from repro.harness import chaos_dist, chaos_server
from repro.harness.chaos import Campaign
from repro.serve.leases import LeaseTable


def _play(module, prefix, names):
    campaign = Campaign(prefix, seed=7)
    campaign.play({name: module.SCENARIOS[name] for name in names})
    return campaign


@pytest.mark.parametrize(
    "module, prefix, names",
    [
        (chaos_server, "chaos[server]", ["lease expiry", "admission flood"]),
        (chaos_dist, "chaos[dist]", ["partition", "duplicate push", "torn body"]),
    ],
    ids=["server", "dist"],
)
def test_scenarios_record_no_failure(module, prefix, names, capsys):
    campaign = _play(module, prefix, names)
    assert campaign.failures == []
    lines = capsys.readouterr().out.splitlines()
    for name in names:
        assert any(line.startswith(f"{prefix}: {name} — ") for line in lines)


def test_a_lease_table_without_fencing_fails_a_scenario(monkeypatch):
    monkeypatch.setattr(LeaseTable, "is_current", lambda self, lease: True)
    campaign = _play(chaos_dist, "chaos[dist]", ["partition"])
    assert campaign.failures
    assert all(failure.startswith("partition: ") for failure in campaign.failures)
