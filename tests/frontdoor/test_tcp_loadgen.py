"""Open-loop arrivals over a real localhost socket server.

200 concurrent sessions dial the front door over TCP (the ``overload``
kind's ``tcp`` host); the governance claim must hold unchanged across
the kernel boundary — every session terminal, every rejection typed,
zero hung sessions.
"""

from __future__ import annotations

from repro.check import check


def test_tcp_loadgen_200_sessions_zero_untyped_zero_hung():
    report = check("overload", host="tcp", sessions=200, case=0)
    # an untyped rejection or a hung session is a failure
    assert report.ok, [failure.describe() for failure in report.failures]
    counts = report.counts
    # the run did real work over the socket, not vacuous passes; any
    # non-completed session must have ended in a *typed* outcome
    assert counts["completed"] >= 150
    terminal = sum(
        counts[name]
        for name in ("completed", "overload_rejections", "link_timeouts",
                     "storage_rejections")
    )
    assert terminal == 200
    assert counts["executes"] > 0
    # sessions read the contended key before writing it: some lose the race
    assert counts["conflicts"] > 0
