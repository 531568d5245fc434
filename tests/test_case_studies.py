"""The paper's two case studies, estimated on their published models at
fixed seeds: the verdicts and intervals each model is known to give."""

import pytest

from headwaylab.properties import (EstimatorConfig, estimate_steady_state, evwt_query, ewt_query,
                                   headway_query, parse_quatex)
from headwaylab.synthetic import airlink_model, bellevue_express_model


def estimate(model, text, ecfg, seed):
    prop = parse_quatex(text)
    return estimate_steady_state(model, prop.assertions[0], prop.functions, ecfg, seed=seed)


def test_bellevue_express_waits_grow_along_the_timetabled_route():
    # the patch means sum to about 6340 s; the timetable runs at r = 6323 s
    model = bellevue_express_model()
    assert (model.n, model.cfg.n_buses, model.r, model.termini) == (12, 12, 6323.0, (1, 7))
    assert sum(model.means) == pytest.approx(6340.5, abs=0.1)
    ecfg = EstimatorConfig(max_sim_time=60 * model.r)
    verdicts = [estimate(model, text, ecfg, seed=11).verdict
                for text in (ewt_query(2), ewt_query(12), evwt_query(12))]
    assert verdicts == ["satisfied", "violated", "violated"]


@pytest.mark.parametrize("seed", [5, 11, 42])
def test_timetabled_airlink_mean_headway_is_r_over_beta(seed):
    model = airlink_model()
    assert model.mu_tot == pytest.approx(478.09, abs=0.005)
    ecfg = EstimatorConfig(rel_halfwidth_target=0.001, max_sim_time=100 * model.r)
    for patch in (2, 5):
        got = estimate(model, headway_query(patch), ecfg, seed)
        assert abs(got.estimate - model.mu_tot) <= got.halfwidth, (patch, got)
