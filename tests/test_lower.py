import json
import math
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varbounds import (
    AtomicMeasure,
    C1Violation,
    OptionChain,
    WeightSpec,
    check_c1,
    dp_lower_bound,
    feasible_policy_sets,
    grid_lp_oracle,
    make_payoff,
    normalize,
    parse_weight,
    reconstruct_subhedge,
    tighten_tail,
    validate_puts,
)
from varbounds import lower
from varbounds.chain import EQ_TOL
from varbounds.lower import (
    HedgePortfolio,
    ReconstructionFailure,
    build_lp_grid,
    dominates_below,
    lp_lower_bound,
    policy_objective,
)
from varbounds.swap import compute_lower, swap_rate_bounds
from conftest import (
    lognormal_chain,
    random_consistent_chain,
    scale_chains,
    single_put_chain,
    trimmed_route_chain,
    twin_weight,
    window_excess,
)

INVERSE = make_payoff(WeightSpec.inverse())
VANILLA = make_payoff(WeightSpec.vanilla())
GAMMA = make_payoff(WeightSpec.gamma())
CLI_WEIGHTS = ("vanilla", "gamma", "corridor-up:1.0", "corridor-down:0.9")
GOLDENS = json.loads((Path(__file__).parent / "data" / "dp_lower_goldens.json").read_text())

# Chains on which dp_lower_bound refused an atom outside its interval when its
# weights came from a local refinement and coordinate polish (weight, strikes, puts).
DEGENERATE_POLICY_CHAINS = [
    (
        "gamma",
        [0.7643300623348683, 1.048208409368631, 1.4646766288441049, 2.060503670445465,
         2.0842532033863193, 2.3883642148573525, 2.5703907029752897],
        [0.22409773470940536, 0.37398216209448043, 0.6700424678529756, 1.1889918717584564,
         1.2096770792132328, 1.4745496296430172, 1.6348328781683101],
    ),
    (
        "corridor-down:0.9",
        [0.7024474393543321, 0.8900753943168401, 0.8964378085330278, 1.1209508632354344,
         2.0585699129532804, 2.318186814829915, 2.394421745195519],
        [0.17870741576287877, 0.2922280259626482, 0.29676566913064595, 0.4568872981507563,
         1.1618011477366852, 1.3914521807464137, 1.4588878152653284],
    ),
    (
        "corridor-down:0.9",
        [0.4068191664678112, 0.7481014801929867, 1.5803442242670402, 1.7847518152164692,
         1.9757839818397864],
        [0.040828684071456824, 0.1665827746428688, 0.6128963001823847, 0.8096388789547647,
         0.9935075939832826],
    ),
    (
        "corridor-down:0.9",
        [0.36302149407498696, 1.6093357692263315, 1.8996425056875534, 2.5728050565858678],
        [0.01718484646892724, 0.6904437928157864, 0.9566545255807505, 1.6085493684934156],
    ),
]


# Chains of bench/known_defects.json whose grid LP ended below the unit
# forward and reported a spurious Unbounded (weight, strikes, puts).
LP_GRID_BELOW_FORWARD_CHAINS = [
    ("corridor-up:1.0", [0.01957614, 0.03623334], [0.0, 0.00048459]),
    ("vanilla", [0.01641057438376783, 0.05960193476799249], [0.0, 0.006047568161835576]),
    ("corridor-up:1.0", [0.008785154440767617, 0.10178578096614681], [0.0, 0.008206022073117393]),
]

# Capped chains whose top strike prices at intrinsic value to rounding, so
# the tail constant 1 + p_top - k_top is 0 (or -4.4e-16): no forward mass can
# escape, and gamma's boundary limit gamma * 0 must not turn the value into
# inf or NaN (strikes, puts; benchmark chain-batch seed 21, ops 278, 406, 449).
CAPPED_GAMMA_CHAINS = [
    ([0.2779051524837469, 0.46733711004633083, 0.5649087401425756, 0.6255085047547644,
      0.9715536090530061, 1.3449887613007097, 2.1191558154501937],
     [0.06480423562999503, 0.13792840459872768, 0.18333123283805264, 0.21153001050853684,
      0.3725545462062042, 0.5483068333208517, 1.1191558154501937]),
    ([1.0066658153220192, 2.040341111861534], [0.25723109313874276, 1.0403411118615336]),
    ([0.1113878313844886, 0.22397273910034834, 0.4689195846125671, 1.0954623022404748,
      1.1875671305550684, 1.209821452644094, 1.87980916333085],
     [0.012214594353364996, 0.03697421660603445, 0.09084281666894657, 0.2286318092467025,
      0.27754351540096706, 0.2932425520391738, 0.87980916333085]),
]

# Capped chains whose last put is quoted 1.000088900582341e-12 above intrinsic
# value: n_max = n although 1 + p_n - k_n exceeds EQ_TOL, so any cap test but
# n_max's lets mass escape past the cap (strikes, puts, the last put at exactly
# k_n - 1).  The first is 60 / 100 / 150 at F = 100 with the last put at
# 50.0000000001, normalized.
NEAR_INTRINSIC_CAPS = [
    ([0.6, 1.0, 1.5], [0.02, 0.12, 0.500000000001], 0.5),
    ([0.6, 1.0, 2.854054898240249], [0.02, 0.12, 1.8540548982412488], 2.854054898240249 - 1.0),
]

# Draw 179 (from 0) of random_consistent_chain(default_rng(103)): s_2..s_6
# agree to rounding and are not monotone, and the atom of a segment of
# weight 7.4e-7 came out 1.7e-10 above its interval (strikes, puts).
ROUNDED_SLOPES_CHAIN = (
    [0.07584682458042498, 0.2505755005659024, 0.28429787627979236, 0.4105974213310324,
     0.9737021459494579, 1.2216895676587212, 1.4690619859561787],
    [0.02886724775683454, 0.1096458880179868, 0.12523604596532997, 0.18362546291306256,
     0.4439538476087015, 0.5586006656799847, 0.6729650532354583],
)

# s_2 lies 0.68 EQ_TOL below s_1, which validate_puts allows.  The boxes follow the running maximum of the
# slopes and the atom formula the slope itself, so under gamma the atom of interval 2 comes out 1.8e-10 past
# k_2 (strikes, puts).
DIPPED_SLOPE_CHAIN = ([0.5758584500074987, 2.039009474570217, 2.0922363862987816],
                      [0.3214924396518182, 1.138345943249842, 1.1770610862989854])

# Chains whose tangent subhedge bridged a run of atom-free intervals with a
# chord above the payoff (weight, strikes, puts): collinear k_4..k_8 under
# corridor-up, and collinear k_2..k_6 under corridor-down (chord 0.83 high).
COLLINEAR_STRETCH_CHAINS = [
    (
        "corridor-up:1.0",
        [1.458516375071155, 3.441346196368151, 5.216008997944777, 5.416593176210377,
         6.053382901073156, 6.228907823945181, 6.766583009900949, 7.298496869681685],
        [0.8782499876828561, 2.6181838630840772, 4.308362186479025, 4.503967534487175,
         5.124951087710723, 5.296119192390565, 5.820448393096331, 6.339159273248601],
    ),
    (
        "corridor-down:0.9",
        [0.08769546317221677, 0.25317832838017496, 0.8837907036194841, 1.3577908650806323,
         1.499345334610727, 1.8137097530459685],
        [0.0189794373830413, 0.1103871477855176, 0.4587182774142812, 0.7205415751624761,
         0.79873196629888, 0.97237732640949],
    ),
    # collinear k_1..k_3: the atom at k_1 comes out one ulp above it and
    # must still count as sitting on k_1, not force k_2 with its tangent
    ("corridor-up:1.0", [0.9666310470985264, 1.2865981023807767, 2.48646297195765],
     [0.38194306988091364, 0.6454151621635102, 1.6334259664787778]),
]

# Draws of random_consistent_chain on which the Newton solve ended at a
# point that depended on the warm start (seed, draw index from 0, weights,
# strikes, puts).  The values were above the grid-200 optimum, by up to
# 1.75e-5, and the subhedge missed contact or domination.
START_DEPENDENT_CHAINS = [
    # grid 32: contact missed by 6.1e-8 (gamma); grid 16: by 1.47e-8 (corridor-up)
    (8, 138, ("gamma", "corridor-up:1.0"),
     [0.2342990439760388, 0.2540947576410699, 0.4180919527564031, 1.0641108979005869,
      1.106358637934477, 1.1452488990384804, 1.147462651123487],
     [0.019056415838839363, 0.022675765455869815, 0.05266019518538598, 0.17754759945926007,
      0.19835234227036241, 0.21755526123768892, 0.2186483498592451]),
    # grids 8-32: value 1.3e-13 high, contact missed by 8.8e-8
    (101, 1, ("gamma",),
     [0.9072672571301771, 1.7323908844193174, 2.0700257435787233],
     [0.2903025498691477, 0.8991606258348033, 1.1520786153288785]),
    # grid 16: value 1.75e-5 high, contact missed by 1.3e-3
    (104, 132, ("inverse",),
     [0.2167486111351554, 0.4265980095317937, 0.6854723959970095, 2.087634555388187],
     [0.030570903447174485, 0.1221515173830402, 0.25751379942613456, 1.1381386862299607]),
    # grid 32: contact missed by 1.41e-8
    (103, 129, ("inverse", "custom"),
     [0.2666241036208329, 0.6773589450513131, 0.7013101391894477, 0.9947163218060142,
      1.1681291830988092, 1.3125347466185135, 1.3355037957545008],
     [0.003356596300433536, 0.013740023001261157, 0.014345512099445457, 0.06423741015878033,
      0.20963798933063454, 0.34174728159108503, 0.36276049431842394]),
    # grid 8: value 1.2e-5 high, domination missed by 1.8e-3; a dust atom of
    # weight 3.9e-12 between z_4 and z_5 held z_4 at its upper bound
    (21, 143, ("vanilla", "inverse"),
     [0.12380144713355079, 0.5435687625546051, 0.7023085110941099, 0.7395613414194891,
      0.870387664393282, 0.9950801334286039, 1.0581186306399812, 1.4560517159844446],
     [0.0007640243807473175, 0.025600917591784178, 0.03909885577707071, 0.05631186651600998,
      0.11718296148533905, 0.18471701530262571, 0.2224296965545756, 0.5085087358271476]),
    # grids 8-16: value 3.9e-8 high, domination missed by 5.5e-5; the atom at
    # the origin has curvature 0/0 under corridor-up, which froze z_1
    (2024, 15, ("corridor-up:1.0",),
     [1.2158680223501255, 1.7349793065837917],
     [0.5437924587711223, 0.8295508602578768]),
    # grids 8-32: value 8.9e-13 high, first-order residual 9.3e-4; a dust
    # atom of weight 2e-12 between z_7 and z_8
    (2024, 163, ("vanilla",),
     [0.14809566312881972, 0.29390204672967646, 0.37175359990919354, 0.4971894304751254,
      0.6548979486656121, 1.2917415318107213, 1.5487175452931425, 1.776551501755465],
     [0.02169426258306366, 0.05075099297539799, 0.06626548236534274, 0.09126270827741452,
      0.12269133149997556, 0.36536472611781884, 0.5919908253422417, 0.7996263696586416]),
]

# chain-batch ops (strikes, puts) of the weight corridor-down:0.9 whose Newton
# solve stalled from every warm start, its values moving with the grid by up
# to 3e-4, and whose subhedge missed contact by 3.8e-7 to 5.2e-3: one weight
# of 1.1e-15 to 2.1e-14 sat in the rounding-wide gap between two intervals,
# a dust atom of curvature 1 / weight (seed/op 50/476, 71/229, 82/221,
# 84/401 and 95/269).
DUST_STALL_CHAINS = [
    ([0.44645346572092026, 0.7525101288037676, 1.053248987255003, 1.057286571976093,
      1.377648273940111, 1.4176068138562823, 1.8879807905085348],
     [0.10425366781936886, 0.30380338866747886, 0.5110626044149981, 0.5138451734754675,
      0.7346278001255224, 0.762165896426385, 1.0977911903918058]),
    ([0.21268176225114127, 0.6500889174000816, 1.1943771284888927, 1.2031947660365683,
      1.566267668411303, 1.7007526011566312, 1.7533043859362643, 1.8152529234761192],
     [0.01120673445424318, 0.07345592289601147, 0.3909620266368614, 0.39610572382692366,
      0.607901350221768, 0.7088474735851014, 0.7605551487975699, 0.8215086420505651]),
    ([0.41723358361904167, 0.5403125918688808, 0.9799815511636233, 1.0440355847537193,
      1.144781847646434, 2.1569864680212474],
     [0.025260803915411145, 0.06961299237113089, 0.406384140670506, 0.45544730510209464,
      0.5326154424563296, 1.3429642355948987]),
    ([0.2783670778567956, 0.33271792602714223, 0.5792689364942772, 0.8222980325661431,
      0.8657862462791978, 1.114249371570755, 1.1185879952164843, 1.4482332103425963],
     [0.05065856137739987, 0.06824582088547816, 0.14802666606150985, 0.2268524877955131,
      0.24313445838638623, 0.3806959079625611, 0.38309798415463847, 0.5656058455742614]),
    ([0.14707790374493174, 0.6764790080892085, 0.8267295333351172, 1.2786521938777022,
      1.3415261053357384, 1.6061319165890753],
     [0.006633682945134283, 0.07206741175530469, 0.13740793065229898, 0.46217659619509976,
      0.5073601598986032, 0.6975158739591479]),
]
DUST_STALL_IDS = ["50/476", "71/229", "82/221", "84/401", "95/269"]

# Chains on which the grid LP over cash, a free forward and every put failed
# (weight, strikes, puts).  HiGHS gave up on chain-batch seed 81 op 59, seed
# 112 op 89 and the third bench/known_defects.json entry, whose strikes 2 and
# 6 carry no mass; seeds 54 op 201, 103 op 199 and 110 op 296 read up to 3e-2
# above the bound, holding a forward that the grid's end left unchecked.
# The free-put chain, its put at 0.5 costing 1e-12, was unbounded for every
# weight, and the one-strike cap at the forward raised on its default grid,
# which is that one strike.  The node-value LP was unbounded on the last
# chain, whose first two quotes lie on a ray through the origin, until its
# grid held the origin: y_0 then rose without limit as y_1 fell at no cost.
FREE_PUT_CHAIN = ([0.5, 0.5001, 0.5002, 1.0, 1.6], [1e-12, 1.01e-10, 2.01e-10, 0.125, 0.665])
ORACLE_FAILURE_CHAINS = [
    ("vanilla",
     [0.6657170490577864, 1.2090174328015006, 1.983938597317441, 2.001202786875502,
      2.774139299027129, 3.8183625212766037],
     [0.12235797317397729, 0.31812283651791995, 1.0652526502598503, 1.0818976863222949,
      1.827114024191853, 2.8338877932778823]),
    ("vanilla",
     [0.3916846149893318, 0.5295655220231306, 0.8722436193586892, 1.1752533321146945,
      1.656879212578051, 1.795823785215719],
     [0.03204305065080771, 0.05269361427295015, 0.23196531806893167, 0.4397856764435621,
      0.7703869619543906, 0.8657623481038497]),
    ("vanilla",
     [0.27268475731430697, 0.284889865593978, 0.42204276877465996, 0.804639201026542,
      0.8816016018688613, 1.611455473599282, 1.6307506916093195],
     [0.00942945214719446, 0.010867358572488285, 0.027025596272000133, 0.13286242176498841,
      0.17639399762662736, 0.7589359139765236, 0.774336631450703]),
    ("inverse", [0.7133663132360372], [0.5651218289383888]),
    ("inverse", [1.0575588310467965], [0.7346193364358506]),
    ("inverse", [1.7363207281811075], [1.4094052880133092]),
] + [(w, *FREE_PUT_CHAIN) for w in CLI_WEIGHTS + ("inverse",)] + [
    (w, [1.0], [0.0]) for w in CLI_WEIGHTS + ("inverse",)
] + [(w, [0.5, 0.8, 1.2], [0.05, 0.08, 0.25]) for w in ("gamma", "corridor-up:1.0")]
ORACLE_FAILURE_IDS = ["81/59", "112/89", "known-defect-3", "54/201", "103/199", "110/296"] + [
    f"{chain}-{w}" for chain in ("free-put", "pinned") for w in CLI_WEIGHTS + ("inverse",)
] + ["origin-ray-gamma", "origin-ray-corridor-up:1.0"]

# The grid LP solves to feasibility tolerance 1e-10: a sampled relaxation
# sits above the optimum only to within this.
ORACLE_SLACK = 1e-10

# chain-batch ops (weight, strikes, puts) whose vanishing-atom release, taken
# at the clipped closed-form inverse without stepping it onto the root-find's
# float, moved the measure (and on seed 22 op 109 the value) by an ulp:
# seed/op 22/109, 23/35, 27/2 and 30/372.
RELEASE_SNAP_CHAINS = [
    ("vanilla",
     [0.27919483435970993, 0.5778219571840717, 0.736412497064987, 0.7599807253170396,
      0.7980508720413719, 1.572239333191765, 2.553231295360444],
     [0.049274050101278284, 0.17236799924223137, 0.25782324496087566, 0.2709189292009262,
      0.2920726033397884, 0.7497953147704153, 1.5532312953604437]),
    ("gamma",
     [0.21894086626340886, 0.6046200907056989, 0.694352387411385, 0.9879017208605334],
     [0.0035864688938865223, 0.042532226332019904, 0.07938011834341963, 0.20613299587357922]),
    ("vanilla",
     [0.15669717844030412, 0.16881641973236997, 0.25338827880676684, 0.29755558647815583,
      0.3743009709577344, 0.5269792248111006, 0.6597669622294731, 1.0870374897729134],
     [0.002382395315108292, 0.0026313106272263308, 0.004368319586003972, 0.005275465413823629,
      0.006851727563489672, 0.01181737988594861, 0.023531349361603483, 0.2378739733131562]),
    ("gamma",
     [0.3996818150947992, 0.7812731743724597, 0.8381097336729106, 0.9063656229159545],
     [0.013411648391525921, 0.04568558292885271, 0.05865474045518742, 0.07496480629682777]),
]

# gamma chains (strikes, puts) that need an inward push of a weight whose
# slope is infinite at an atom at 0: chain-batch seed 21 ops 365 and 475.
INWARD_PUSH_CHAINS = [
    ([0.1639612328345026, 2.6790829782610808, 2.689464200809268, 4.7291670683624165,
      5.315796587976823, 5.40316928911489],
     [0.0006282330642324871, 1.7730333606103037, 1.7831335252068345, 3.7676141193446204,
      4.3383614159936155, 4.423368616122669]),
    ([0.4699811933311046], [0.006460831667143041]),
]

# (weight, strikes, puts) of random consistent chains (default_rng(7) draws 292 and 104, default_rng(32) draws 77
# and 4) where corridors anchored at the forward are affine, with values a rounding off 0 slope apart, over whole
# intervals: a slope of rounding there once sent a weight across its box, and the solve stalled on the others.
AFFINE_STRETCH_CHAINS = [
    ("corridor-down:1.5",
     [0.36963081945997756, 0.4296461410252522, 0.5668079735652721, 1.0278597313433142, 1.9276195759486565,
      2.659899831703322],
     [0.112166040315516, 0.13950521354287654, 0.20198744311679154, 0.41476233889953945, 0.9836197978873411,
      1.6729039673037374]),
    ("corridor-down:1.1",
     [0.3637309257608358, 0.6652832965058596, 1.1378356495124318, 1.5655927939774998, 1.9517836505237276],
     [0.0175601069390593, 0.0769205985530861, 0.38613595058309763, 0.7088724362785096, 1.0132378777739512]),
    ("corridor-up:0.9",
     [0.6950831660163009, 1.0024560708810706, 1.2087144579641274, 1.4046709752543034, 2.483588355906646,
      2.514366698060806],
     [0.15147284620132692, 0.3175847000316985, 0.44880457890204, 0.5825245107497893, 1.52387747973476,
      1.5510116494951047]),
    ("corridor-down:1.25",
     [0.4634983268584811, 0.5328130747809777, 0.9412224081277889, 4.1737151164569415],
     [0.05436863240945084, 0.0821211521888782, 0.2456666412869738, 3.240759765962476]),
]

# Every built-in weight, plus a custom payoff without a curvature density.
SUBHEDGE_PAYOFFS = [make_payoff(parse_weight(w)) for w in CLI_WEIGHTS + ("inverse",)] + [
    make_payoff(WeightSpec.custom(lambda x: 1.0 / x + 0.1 * x, lambda x: -1.0 / np.square(x) + 0.1,
                                  origin_value=math.inf, asymptotic_slope=0.1, tail_curvature_divergent=False))
]
PAYOFFS_BY_NAME = dict(zip(CLI_WEIGHTS + ("inverse", "custom"), SUBHEDGE_PAYOFFS))


@pytest.fixture
def no_grid_lp(monkeypatch):
    """Fail any code path that reaches the grid LP."""

    def refuse(*args, **kwargs):
        raise AssertionError("the grid LP was called")

    monkeypatch.setattr(lower, "solve_grid_lp", refuse)


def assert_subhedge_contract(nc, payoff, measure):
    """Domination, contact at every atom, and cost equal to the measure integral plus the tail slope times
    the escaped mean: the hedge is reported with its tail already lifted where mass escapes."""
    port = reconstruct_subhedge(nc, payoff, measure)
    assert dominates_below(port, payoff)
    live = measure.weights > 1e-11
    contact = port.payoff(measure.atoms[live]) - payoff.value(measure.atoms[live])
    assert np.max(np.abs(contact)) <= 1e-8
    target = measure.integrate(payoff) + port.forward * measure.mean_at_infinity
    assert port.setup_cost(nc) == pytest.approx(target, abs=1e-8)


def assert_trimmed_contract(nc, payoff):
    """``lp_lower_bound`` on a trimmed-route chain: the measure reprices the full
    chain; the hedge holds no free strike, dominates exactly on the window,
    touches every atom and costs the measure integral; the value is at most
    the grid-LP oracle's."""
    value, port, measure = lp_lower_bound(nc, payoff)
    assert measure.check(nc) == []
    assert np.all(port.puts[: nc.n_min] == 0.0) and np.all(port.puts[nc.top_index :] == 0.0)
    assert window_excess(nc, payoff, port) <= 1e-8
    live = measure.weights > 1e-11
    assert np.max(np.abs(port.payoff(measure.atoms[live]) - payoff.value(measure.atoms[live]))) <= 1e-8
    cost, integral = port.setup_cost(nc), measure.integrate(payoff)
    if measure.mean_at_infinity > 0.0 and port.forward < -1e-12:
        assert cost <= integral + 1e-8  # the flat tail was inadmissible
    else:
        assert cost == pytest.approx(integral, abs=1e-8)
    assert value <= oracle_value(nc, payoff, measure) + ORACLE_SLACK
    return value, port, measure


def oracle_value(nc, payoff, measure):
    """The grid-LP oracle on its default grid with the measure's atoms added."""
    return grid_lp_oracle(nc, payoff, build_lp_grid(nc, payoff, extra=measure.atoms))


def final_kkt_residual(nc, payoff, policy):
    """First-order residual of a solved policy, on the boxes of the Newton solve."""
    sets = feasible_policy_sets(nc)
    return lower._kkt_residual(lower._policy_state(nc, payoff, policy), sets[:, 0], sets[:, 1])


def measure_of(nc, zeta, payoff=VANILLA):
    """The measure ``dp_lower_bound`` reads off a solve whose last state is at ``zeta``; no payoff enters it."""
    return lower._atoms_from_policy(nc, lower._policy_state(nc, payoff, np.asarray(zeta, dtype=float)))


def chain_of(strikes, prices):
    return normalize(
        OptionChain(
            maturity=1.0,
            discount_factor=1.0,
            forward=1.0,
            strikes=np.asarray(strikes, dtype=float),
            put_prices=np.asarray(prices, dtype=float),
        )
    )


def dipped_chain(rng):
    """A random consistent chain with p_j lowered so that s_j dips (0.25, 0.95) EQ_TOL below s_{j-1}.

    None where that leaves no consistent chain with one such dip, or the chain has one strike.
    """
    nc = random_consistent_chain(rng)
    if nc.n < 2:
        return None
    j = int(rng.integers(2, nc.n + 1))
    p = nc.p.copy()
    p[j] = p[j - 1] + (nc.slopes[j - 2] - rng.uniform(0.25, 0.95) * EQ_TOL) * (nc.k[j] - nc.k[j - 1])
    dipped = chain_of(nc.k[1:], p[1:])
    dips = -np.diff(dipped.slopes)
    one_dip = np.count_nonzero(dips > 0.0) == 1 and 0.25 * EQ_TOL < dips[j - 2] < 0.95 * EQ_TOL
    return dipped if one_dip and validate_puts(dipped).is_consistent else None


def affine_plus_inverse(alpha):
    return make_payoff(WeightSpec.custom(lambda x: 1.0 / x + alpha * x, lambda x: -1.0 / np.square(x) + alpha,
                                         lambda x: 2.0 / x, origin_value=math.inf, asymptotic_slope=alpha,
                                         tail_curvature_divergent=False))


class TestPolicySets:
    def test_single_put(self):
        sets = feasible_policy_sets(single_put_chain(0.4))
        np.testing.assert_allclose(sets, [[1.0 / 3.0, 1.0]])

    def test_two_puts(self):
        # slope into each strike on the left, slope out on the right, capped at 1
        sets = feasible_policy_sets(chain_of([1.0, 1.2], [0.1, 0.25]))
        np.testing.assert_allclose(sets, [[0.1, 0.75], [0.75, 1.0]])

    def test_no_set_when_the_window_is_one_strike(self):
        # The free put at 1 is also the cap: the window is that strike alone, with no interval.
        nc = chain_of([1.0], [0.0])
        assert nc.window.n == 0
        assert feasible_policy_sets(nc).shape == (0, 2)

    def test_a_capped_chain_takes_the_sets_of_its_window(self):
        # The put at 2 prices at intrinsic value: the window ends there, one interval from the origin.
        nc = chain_of([2.0, 3.0], [1.0, 2.0])
        np.testing.assert_array_equal(feasible_policy_sets(nc), [[0.5, 1.0]])
        np.testing.assert_array_equal(feasible_policy_sets(nc), feasible_policy_sets(nc.window))

    def test_refuses_an_inconsistent_chain(self):
        nc = chain_of([0.8, 1.0, 1.2], [0.075, 0.2, 0.275])  # concave at 1.0: an arbitrage
        assert not validate_puts(nc).is_consistent
        with pytest.raises(ValueError, match="feasible policy sets need a consistent chain"):
            feasible_policy_sets(nc)

    @pytest.mark.parametrize("weight,strikes,puts", DEGENERATE_POLICY_CHAINS[:3])
    def test_rounded_slopes_never_invert_an_interval(self, weight, strikes, puts):
        # convex only to within EQ_TOL: a slope may dip below its predecessor
        nc = chain_of(strikes, puts)
        assert np.any(np.diff(nc.slopes) < 0.0)
        sets = feasible_policy_sets(nc)
        assert np.all(sets[:, 1] >= sets[:, 0])

    def test_neighbouring_intervals_share_one_edge(self):
        # The edges are the running maximum of the slopes, each moved up by at
        # most _SNAP where a rounding-wide interval collapsed to a point, then
        # 1; no gap between two intervals is left to hold a dust atom.
        rng = np.random.default_rng(3)
        chains = [random_consistent_chain(rng) for _ in range(200)] + [chain_of(*ROUNDED_SLOPES_CHAIN)]
        chains += [chain_of(strikes, puts) for _, strikes, puts in DEGENERATE_POLICY_CHAINS]
        chains += [chain_of(strikes, puts) for strikes, puts in DUST_STALL_CHAINS]
        for nc in chains:
            sets = feasible_policy_sets(nc)
            width = sets[:, 1] - sets[:, 0]
            assert np.array_equal(sets[1:, 0], sets[:-1, 1])
            assert np.all(np.diff(sets[:, 0]) >= 0.0) and np.all(width >= 0.0) and sets[-1, 1] == 1.0
            assert np.all((width == 0.0) | (width > lower._SNAP))
            moved = sets[:, 0] - np.maximum.accumulate(nc.slopes)
            assert np.all((moved >= 0.0) & (moved <= lower._SNAP))


class TestAtomsFromPolicy:
    def test_regular_policy(self):
        mu = measure_of(single_put_chain(0.4), np.array([8.0 / 9.0]))
        np.testing.assert_allclose(mu.atoms, [0.75, 3.0], atol=1e-12)
        np.testing.assert_allclose(mu.weights, [8.0 / 9.0, 1.0 / 9.0], atol=1e-12)
        assert mu.mean_at_infinity == 0.0
        assert mu.check(single_put_chain(0.4)) == []

    def test_boundary_policy_with_escape(self):
        nc = single_put_chain(0.6)
        mu = measure_of(nc, np.array([1.0]))
        np.testing.assert_allclose(mu.atoms, [0.6], atol=1e-12)
        np.testing.assert_allclose(mu.weights, [1.0])
        assert mu.mean_at_infinity == pytest.approx(0.4, abs=1e-12)
        assert mu.check(nc) == []

    def test_no_atom_for_flat_increment(self):
        nc = chain_of([1.0, 1.2], [0.1, 0.2])
        mu = measure_of(nc, np.array([0.5, 0.5]))  # both at the shared endpoint
        assert mu.atoms.size == 2  # interval-2 atom absent, tail atom present
        assert mu.check(nc) == []

    def test_an_atom_past_its_strike_is_clipped_onto_it(self):
        nc = chain_of(*DIPPED_SLOPE_CHAIN)
        assert -EQ_TOL < nc.slopes[1] - nc.slopes[0] < 0.0
        zeta = dp_lower_bound(nc, GAMMA).policy
        assert two_form_atom(nc, 2, zeta[0], zeta[1]) > nc.k[2] + 1e-10  # the formula overshoots the strike
        assert lower._atom(nc, 2, zeta[0], zeta[1]) == nc.k[2]
        measure = measure_of(nc, zeta)
        assert nc.k[2] in measure.atoms
        assert measure.check(nc) == []
        assert_subhedge_contract(nc, GAMMA, measure)


class TestDpLowerBound:
    @pytest.mark.parametrize(
        "price,value,atoms,weights",
        [
            (0.4, 1.2222, [0.75, 3.0], [0.8889, 0.1111]),
            (0.6, 1.6667, [0.6], [1.0]),
            (0.7, 2.0, [0.5], [1.0]),
        ],
    )
    def test_inverse_payoff_golden(self, price, value, atoms, weights):
        sol = dp_lower_bound(single_put_chain(price), INVERSE)
        assert sol.value == pytest.approx(value, abs=1e-3)
        np.testing.assert_allclose(sol.measure.atoms, atoms, atol=1e-3)
        np.testing.assert_allclose(sol.measure.weights, weights, atol=1e-3)

    def test_c1_violation(self):
        # consistent, but the first two quotes lie on a ray through the
        # origin, so all near-zero mass may sit at zero
        nc = chain_of([0.5, 0.6], [0.05, 0.06])
        assert not math.isfinite(VANILLA.origin_value)
        with pytest.raises(C1Violation):
            dp_lower_bound(nc, VANILLA)

    def test_a_one_strike_window_gives_the_dirac_at_the_forward(self):
        # A window with no interval gives payoff(1) and the Dirac at the forward.
        pinned = [chain_of([1.0], [0.0]), chain_of([1.0, 1.0 + 5e-13], [0.0, 0.0])]
        for target in pinned + [nc.window for nc in pinned]:
            for payoff in SUBHEDGE_PAYOFFS:
                sol = dp_lower_bound(target, payoff)
                assert sol.value == payoff.at_one()
                np.testing.assert_array_equal(sol.measure.atoms, [1.0])
                np.testing.assert_array_equal(sol.measure.weights, [1.0])

    def test_solves_any_consistent_chain_on_its_window(self):
        chains = scale_chains()
        assert sum(nc.window is not nc for nc in chains) == 50
        for nc in chains:
            np.testing.assert_array_equal(feasible_policy_sets(nc), feasible_policy_sets(nc.window))
            if nc.window is nc:
                continue
            for payoff in (VANILLA, GAMMA):
                whole, window = dp_lower_bound(nc, payoff), dp_lower_bound(nc.window, payoff)
                assert whole.value == window.value
                np.testing.assert_array_equal(whole.measure.atoms, window.measure.atoms)
                np.testing.assert_array_equal(whole.measure.weights, window.measure.weights)

    def test_the_value_is_read_off_the_measure(self):
        # The value is the measure's integral plus gamma times a positive escaped mean, bit for bit: the sum
        # that the subhedge's cost check compares with.  On the scale chains and a one-strike window.
        chains = scale_chains() + [chain_of([1.0, 1.0 + 5e-13], [0.0, 0.0])]
        assert chains[-1].window.n == 0
        escaped = 0
        for nc in chains:
            for payoff in SUBHEDGE_PAYOFFS[:5]:
                sol = dp_lower_bound(nc, payoff)
                mean = sol.measure.mean_at_infinity
                value = sol.measure.integrate(payoff)
                if mean > 0.0:
                    value += payoff.asymptotic_slope * mean
                    escaped += 1
                assert np.float64(sol.value).tobytes() == np.float64(value).tobytes(), (nc.k, payoff.kind)
        assert escaped > 0

    def test_solves_a_chain_capped_at_its_last_strike(self):
        # The put at 1.5 prices at intrinsic value 0.5: the chain is its own window.
        nc = chain_of([0.8, 1.0, 1.5], [0.075, 0.125, 0.5])
        assert nc.n_max == nc.n == 3 and nc.window is nc
        assert dp_lower_bound(nc, VANILLA).value == lp_lower_bound(nc, VANILLA)[0]

    def test_refinement_never_increases_value(self):
        nc = single_put_chain(0.4)
        coarse = dp_lower_bound(nc, VANILLA, grid=20).value
        fine = dp_lower_bound(nc, VANILLA, grid=200).value
        assert fine <= coarse + 1e-12

    def test_measure_invariants_on_random_chains(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            nc = random_consistent_chain(rng)
            for payoff in (VANILLA, GAMMA):
                sol = dp_lower_bound(nc, payoff)
                assert sol.measure.check(nc) == []

    def test_append_quote_never_decreases_value(self):
        rng = np.random.default_rng(33)
        from conftest import atomic_law, price_puts

        for _ in range(8):
            atoms, weights = atomic_law(rng)
            lo, hi = atoms[0] * 1.10, atoms[-1] * 0.90
            ks = np.sort(rng.uniform(lo, hi, size=4))
            extra = rng.uniform(lo, hi)
            while np.min(np.abs(ks - extra)) < 1e-3:
                extra = rng.uniform(lo, hi)
            ks_aug = np.sort(np.append(ks, extra))
            base = chain_of(ks, price_puts(atoms, weights, ks))
            aug = chain_of(ks_aug, price_puts(atoms, weights, ks_aug))
            v0 = dp_lower_bound(base, VANILLA).value
            v1 = dp_lower_bound(aug, VANILLA).value
            assert v1 >= v0 - 1e-9

    def test_affine_invariance_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            nc = random_consistent_chain(rng)
            alpha, beta = rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)
            base = dp_lower_bound(nc, VANILLA).value
            shifted = dp_lower_bound(nc, VANILLA.shift_affine(alpha, beta)).value
            assert shifted == pytest.approx(base + alpha + beta, abs=1e-9)

    @pytest.mark.parametrize("strike,price", [(2.827298277935132, 1.8470219013591405),
                                              (2.7298048498258476, 1.7305432158201683),
                                              (2.164856026028474, 1.1802590481536201),
                                              (1.4711861916592146, 0.4735659757595344)])
    def test_density_free_twin_of_vanilla(self, strike, price):
        # chains on which a gamma of -1e-9, the slope at 1e9, in place of 0
        # would hold the solve at the boundary policy through the tail limit gamma c
        twin = make_payoff(twin_weight("vanilla", lambda x: np.where(x > 0.0, -np.log(x), np.inf), lambda x: -1.0 / x))
        nc = single_put_chain(price, strike)
        assert dp_lower_bound(nc, twin).value == pytest.approx(dp_lower_bound(nc, VANILLA).value, abs=1e-12)


    @pytest.mark.parametrize("n", [50, 100])
    @pytest.mark.parametrize("weight", CLI_WEIGHTS)
    def test_lognormal_goldens(self, n, weight):
        nc = lognormal_chain(n)
        sol = dp_lower_bound(nc, make_payoff(parse_weight(weight)))
        assert sol.value <= GOLDENS["lognormal"][f"{n} {weight}"] + 1e-12
        assert sol.measure.check(nc) == []

    def test_criterion_2_goldens(self):
        rng = np.random.default_rng(2024)
        for j in range(200):
            nc = random_consistent_chain(rng, max_strikes=8)
            for name, payoff in (("vanilla", VANILLA), ("gamma", GAMMA)):
                assert dp_lower_bound(nc, payoff).value <= GOLDENS["criterion2"][name][j] + 1e-12

    @pytest.mark.parametrize("seed,draw,weights,strikes,puts", START_DEPENDENT_CHAINS)
    def test_same_optimum_from_every_warm_start(self, no_grid_lp, seed, draw, weights, strikes, puts):
        nc = chain_of(strikes, puts)
        for weight in weights:
            payoff = PAYOFFS_BY_NAME[weight]
            values = []
            for grid in (8, 16, 32, 200):
                sol = dp_lower_bound(nc, payoff, grid=grid)
                assert_subhedge_contract(nc, payoff, sol.measure)
                values.append(sol.value)
            # 1e-13, not 1e-12: the stall on the last chain cost only 8.9e-13
            assert max(values) - min(values) <= 1e-13

    def test_no_solved_weight_is_dust(self):
        # A weight of at most _MIN_ATOM_WEIGHT carries no atom, in the solve as
        # in the measure; the solve closes it rather than stall on its
        # curvature of 1 / weight.  The tail weight 1 - zeta_n counts too.
        rng = np.random.default_rng(0)
        for _ in range(60):
            nc = random_consistent_chain(rng)
            for payoff in SUBHEDGE_PAYOFFS:
                w = np.diff(np.concatenate(([0.0], dp_lower_bound(nc, payoff).policy, [1.0])))
                assert not np.any((w > 0.0) & (w <= lower._MIN_ATOM_WEIGHT))

    @pytest.mark.parametrize("strikes,puts", DUST_STALL_CHAINS, ids=DUST_STALL_IDS)
    def test_dust_stalled_chains_solve_from_every_grid(self, strikes, puts):
        nc = chain_of(strikes, puts)
        spec = parse_weight("corridor-down:0.9")
        reports = [swap_rate_bounds(nc, spec, grid=grid) for grid in (8, 32, 200)]
        values = [report.lower_value for report in reports]
        assert max(values) - min(values) <= 1e-12
        payoff = make_payoff(spec)
        assert values[0] <= oracle_value(nc, payoff, reports[0].lower_measure) + ORACLE_SLACK

    @pytest.mark.parametrize("weight,strikes,puts", AFFINE_STRETCH_CHAINS, ids=[c[0] for c in AFFINE_STRETCH_CHAINS])
    def test_affine_stretches_hold_still(self, weight, strikes, puts):
        # each raised ReconstructionFailure (contact missed by 1.8e-8 to 8.7e-6); the barrier-anchored
        # form, which differs by ln a + (1/a - 1) x, must give the same bound less ln a + 1/a - 1
        nc, spec = chain_of(strikes, puts), parse_weight(weight)
        payoff, a = make_payoff(spec), spec.barrier
        report = swap_rate_bounds(nc, spec)
        assert window_excess(nc, payoff, report.subhedge) <= 1e-8
        anchored = lp_lower_bound(nc, payoff.shift_affine(1.0 / a - 1.0, math.log(a)))[0]
        assert abs(report.lower_value - (anchored - (math.log(a) + 1.0 / a - 1.0))) <= 1e-11

    @pytest.mark.parametrize("sigma", [0.2, 0.5])
    @pytest.mark.parametrize("n", [200, 400, 1000])
    def test_large_lognormal_chains_end_stationary(self, n, sigma):
        nc = lognormal_chain(n, sigma=sigma)
        for weight in CLI_WEIGHTS:
            payoff = PAYOFFS_BY_NAME[weight]
            sol = dp_lower_bound(nc, payoff)
            assert final_kkt_residual(nc, payoff, sol.policy) <= 1e-15
            assert sol.measure.check(nc) == []

    # Dense lognormal chains whose solve still stalls or misses an atom
    # reopening, so the hedge fails domination or contact by 1e-9 to 1e-7.
    @pytest.mark.xfail(raises=ReconstructionFailure, strict=True)
    @pytest.mark.parametrize("n, sigma, weight, grid", [
        (750, 0.2, "corridor-up:1.0", 32), (850, 0.2, "corridor-up:1.0", 32), (850, 0.2, "inverse", 32),
        (900, 0.2, "inverse", 32), (950, 0.2, "inverse", 32), (1000, 0.2, "inverse", 32),
        (550, 0.5, "corridor-down:0.9", 32),
        (250, 0.2, "corridor-up:1.0", 8), (750, 0.2, "corridor-up:1.0", 8), (300, 0.2, "vanilla", 8),
        (300, 0.2, "gamma", 8), (300, 0.2, "inverse", 8), (550, 0.2, "corridor-down:0.9", 8),
        (800, 0.2, "corridor-down:0.9", 8),
        (600, 0.2, "corridor-down:1.5", 32), (850, 0.2, "corridor-down:1.5", 32),
        (750, 0.5, "corridor-down:1.2", 32), (850, 0.5, "corridor-down:1.5", 32),
    ])
    def test_dense_chains_that_still_fail_to_hedge(self, n, sigma, weight, grid):
        swap_rate_bounds(lognormal_chain(n, sigma=sigma), parse_weight(weight), grid=grid)

    @pytest.mark.parametrize("weight,strikes,puts", DEGENERATE_POLICY_CHAINS)
    def test_degenerate_policy_chains(self, weight, strikes, puts):
        nc = chain_of(strikes, puts)
        payoff = make_payoff(parse_weight(weight))
        sol = dp_lower_bound(nc, payoff)
        assert sol.measure.check(nc) == []
        oracle = grid_lp_oracle(nc, payoff, build_lp_grid(nc, payoff, extra=sol.measure.atoms))
        assert abs(sol.value - oracle) <= 5e-3

    @pytest.mark.parametrize("weight", ["corridor-up:1.0", "custom"])
    def test_atom_a_rounding_outside_its_interval(self, weight):
        nc = chain_of(*ROUNDED_SLOPES_CHAIN)
        payoff = PAYOFFS_BY_NAME[weight]
        sol = dp_lower_bound(nc, payoff)
        assert sol.measure.check(nc) == []
        assert_subhedge_contract(nc, payoff, sol.measure)
        assert sol.value <= oracle_value(nc, payoff, sol.measure) + ORACLE_SLACK

    @pytest.mark.parametrize("weight", ["vanilla", "corridor-down:0.9"])
    def test_reopens_vanishing_atom(self, weight):
        # Two weights meet at s_3, so interval 3 holds no atom.  Each weight
        # alone is stationary there, but moving both apart reopens the atom
        # and lowers the objective by 3e-5: the kink a coordinate-wise
        # optimality test cannot see.
        nc = chain_of([0.06152123270273209, 0.2993150348157739, 1.0440485222973601, 1.3936935260791665],
                      [0.0001447891545803373, 0.0015209347858102613, 0.14479750431468708, 0.4422288047217887])
        golden = {"vanilla": 0.04667062215882021, "corridor-down:0.9": 0.01318515151125949}[weight]
        assert dp_lower_bound(nc, make_payoff(parse_weight(weight))).value <= golden + 1e-12

    def test_infinite_slope_does_not_block_newton(self):
        # gamma's first atom sits at 0, where its slope is -inf; the
        # objective falls along zeta_1 only over a stretch below rounding,
        # and the Newton step on zeta_2 must not wait for it
        nc = chain_of([0.01821583280384486, 1.0145087670285364], [5.078740309865855e-05, 0.1333100760676026])
        sol = dp_lower_bound(nc, GAMMA)
        assert sol.measure.atoms[0] == 0.0
        assert sol.value <= -0.9663389795472322 + 1e-12

    def test_infinite_slope_leaves_the_other_weights_stationary(self, no_grid_lp):
        # the -inf entry must not count in the first-order residual, else the
        # Newton step on zeta_2 stops 7e-8 short and contact fails at its atoms
        nc = chain_of([0.01821583280384486, 1.0145087670285364], [5.078740309865855e-05, 0.1333100760676026])
        sol = dp_lower_bound(nc, GAMMA)
        grad = lower._policy_state(nc, GAMMA, sol.policy).grad
        assert grad[0] == -np.inf
        assert np.max(np.abs(grad[1:])) <= 1e-12
        assert_subhedge_contract(nc, GAMMA, sol.measure)


class TestEveryWindowIsItsOwnWindow:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["free", "capped", "both", "priced"]),
           st.sampled_from(CLI_WEIGHTS))
    def test_the_recursion_solves_each_window_in_place(self, seed, route, weight):
        rng = np.random.default_rng(seed)
        if route == "priced":
            nc = random_consistent_chain(rng)
        else:
            nc = trimmed_route_chain(rng, int(rng.integers(1, 8)), route != "capped", route != "free")
        window = nc.window
        assert window.window is window and window.n_min == 0 and window.top_index == window.n
        payoff = make_payoff(parse_weight(weight))
        assert dp_lower_bound(window, payoff).value == lp_lower_bound(nc, payoff)[0]
        with pytest.raises(TypeError):
            replace(nc, n_max=1.0)


class TestLineSearch:
    def test_a_failed_newton_search_costs_one_evaluation(self, monkeypatch):
        # At the optimum the Newton step is rounding-wide: once its full step
        # fails, no shorter step can beat rounding, so none is evaluated.
        nc = lognormal_chain(100)
        sets = feasible_policy_sets(nc)
        lo, hi = sets[:, 0], sets[:, 1]
        state = lower._policy_state(nc, VANILLA, dp_lower_bound(nc, VANILLA).policy)
        d = lower._newton_direction(nc, VANILLA, state, lo, hi)
        calls = []
        policy_state = lower._policy_state
        monkeypatch.setattr(lower, "_policy_state", lambda *args: calls.append(args) or policy_state(*args))
        assert lower._line_search(nc, VANILLA, state, d, lo, hi, newton=True) is None
        assert len(calls) == 1

    @pytest.mark.parametrize("strikes,puts", INWARD_PUSH_CHAINS, ids=["21/365", "21/475"])
    def test_the_floor_stays_off_the_other_directions(self, no_grid_lp, strikes, puts):
        # An inward push moves only weights of infinite slope, so its finite
        # first-order gain is 0; stopping it at the full step leaves a policy
        # whose subhedge fails domination.
        report = swap_rate_bounds(chain_of(strikes, puts), parse_weight("gamma"))
        assert dominates_below(report.subhedge, GAMMA)

    def test_the_newton_cap_raises(self, monkeypatch):
        # A line search that accepts every step never lets the solve stop at an optimum.
        monkeypatch.setattr(lower, "_line_search", lambda nchain, payoff, state, *args: state)
        with pytest.raises(ReconstructionFailure, match="the policy solve did not converge in 200 Newton steps"):
            dp_lower_bound(single_put_chain(0.4), INVERSE)


class TestTridiagonalSolve:
    @staticmethod
    def dense(diag, off):
        return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)

    @pytest.mark.parametrize("n", list(range(1, 17)) + [31, 32, 33, 64])
    def test_matches_dense_solve(self, n):
        rng = np.random.default_rng(n)
        for trial in range(6):
            if trial % 2:
                # B^T B of an upper bidiagonal B: positive definite, not diagonally dominant
                b_diag, b_off = rng.uniform(0.5, 2.0, n), rng.uniform(-1.5, 1.5, n - 1)
                diag = b_diag**2 + np.append(0.0, b_off**2)
                off = b_diag[:-1] * b_off
            else:
                off = rng.normal(size=n - 1) * 10.0 ** rng.uniform(-3, 3)
                diag = np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off)) + rng.uniform(0.1, 2.0, n)
            off[rng.uniform(size=n - 1) < 0.3] = 0.0  # uncoupled neighbours, as pinned weights leave
            A, rhs = self.dense(diag, off), rng.normal(size=n)
            x = lower._solve_tridiagonal(diag, off, rhs)
            ref = np.linalg.solve(A, rhs)
            assert np.linalg.norm(A @ x - rhs) <= 1e-12 * np.linalg.norm(A, 2) * np.linalg.norm(x)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.cond(A) * np.linalg.norm(ref)

    def test_indefinite_system_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            lower._solve_tridiagonal(np.array([1.0, 1.0, 1.0]), np.array([0.5, 2.0]), np.ones(3))

    def test_newton_direction_falls_back_to_the_scaled_gradient(self):
        # [[1, 10], [10, 1]] is indefinite: the Newton solve fails and each
        # free weight steps along -g_i / diag_i instead
        state = bare_state(zeta=np.array([0.3, 0.6]), value=0.0, grad=np.array([0.5, -0.25]),
                           diag=np.array([1.0, 1.0]), off=np.array([10.0]))
        d = lower._newton_direction(None, None, state, np.zeros(2), np.ones(2))
        np.testing.assert_allclose(d, [-0.5, 0.25], rtol=1e-11)


    def test_newton_direction_holds_a_flat_weight(self):
        # no curvature on either side: a slope of rounding stays put, a real one (a vanishing
        # atom's kink) still crosses the box
        state = bare_state(zeta=np.array([0.3, 0.6]), value=0.5, grad=np.array([3e-17, 0.25]),
                           diag=np.array([0.0, 0.0]), off=np.array([0.0]))
        d = lower._newton_direction(None, None, state, np.zeros(2), np.ones(2))
        assert d[0] == 0.0 and d[1] == pytest.approx(-1.0, rel=1e-11)


def bare_state(**fields):
    """A ``_PolicyState`` of two weights without a measure, which ``_newton_direction`` does not read."""
    return lower._PolicyState(**fields, atoms=np.empty(3), weights=np.empty(3), live=np.zeros(3, dtype=bool))


def interior_policy(nc, rng):
    """Weights inside their intervals, and the coordinates free to move.

    Quotes with no atom of the pricing law between them are collinear; their
    interval is a point, where the objective has a kink.
    """
    sets = feasible_policy_sets(nc)
    zeta = sets[:, 0] + rng.uniform(0.2, 0.8, size=nc.n) * (sets[:, 1] - sets[:, 0])
    return zeta, sets[:, 1] - sets[:, 0] > 1e-6


class TestPolicyKernel:
    @pytest.mark.parametrize("weight", CLI_WEIGHTS + ("custom",))
    def test_gradient_matches_central_difference(self, weight):
        payoff = make_payoff(parse_weight(weight))
        rng = np.random.default_rng(5)
        for _ in range(10):
            nc = random_consistent_chain(rng)
            zeta, free = interior_policy(nc, rng)
            grad = lower._policy_state(nc, payoff, zeta).grad
            h = 1e-6
            for i in np.flatnonzero(free):
                e = np.zeros(nc.n)
                e[i] = h
                fd = (policy_objective(nc, payoff, zeta + e) - policy_objective(nc, payoff, zeta - e)) / (2 * h)
                assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("weight", ["vanilla", "gamma", "custom"])
    def test_hessian_matches_gradient_difference(self, weight):
        payoff = make_payoff(parse_weight(weight))
        rng = np.random.default_rng(6)
        for _ in range(10):
            nc = random_consistent_chain(rng)
            zeta, free = interior_policy(nc, rng)
            state = lower._policy_state(nc, payoff, zeta)
            dense = np.diag(state.diag) + np.diag(state.off, 1) + np.diag(state.off, -1)
            h = 1e-7
            fd = np.empty((nc.n, nc.n))
            for i in range(nc.n):
                e = np.zeros(nc.n)
                e[i] = h
                up = lower._policy_state(nc, payoff, zeta + e).grad
                down = lower._policy_state(nc, payoff, zeta - e).grad
                fd[:, i] = (up - down) / (2 * h)
            block = np.ix_(free, free)
            np.testing.assert_allclose(fd[block], dense[block], rtol=1e-5, atol=1e-6 * np.max(np.abs(dense)))

    def test_difference_hessian_without_curvature_density(self):
        # Without a weight, the curvature is a central difference of the slope.
        with_density = affine_plus_inverse(0.1)
        without = PAYOFFS_BY_NAME["custom"]
        rng = np.random.default_rng(7)
        for _ in range(10):
            nc = random_consistent_chain(rng)
            zeta, free = interior_policy(nc, rng)
            exact = lower._policy_state(nc, with_density, zeta)
            approx = lower._policy_state(nc, without, zeta)
            scale = np.max(np.abs(exact.diag))
            np.testing.assert_allclose(approx.diag[free], exact.diag[free], rtol=1e-4, atol=1e-6 * scale)
            pair = free[:-1] & free[1:]
            np.testing.assert_allclose(approx.off[pair], exact.off[pair], rtol=1e-4, atol=1e-6 * scale)
            assert dp_lower_bound(nc, without).value == pytest.approx(dp_lower_bound(nc, with_density).value, abs=1e-12)

    def test_infinite_slope_at_zero_atom_pushes_inward(self):
        # gamma has lambda'(0+) = -inf: with zeta_1 at the left end of A_1
        # the first atom sits at 0 and the gradient there is -inf
        rng = np.random.default_rng(9)
        for _ in range(5):
            nc = random_consistent_chain(rng)
            sets = feasible_policy_sets(nc)
            start = dp_lower_bound(nc, GAMMA).policy.copy()
            start[0] = sets[0, 0]
            assert lower._policy_state(nc, GAMMA, start).grad[0] == -np.inf
            zeta = lower._projected_newton(nc, GAMMA, sets, start).zeta
            assert zeta[0] > sets[0, 0]
            assert policy_objective(nc, GAMMA, zeta) == pytest.approx(dp_lower_bound(nc, GAMMA).value, abs=1e-12)

    @pytest.mark.parametrize("weight", list(PAYOFFS_BY_NAME))
    def test_objective_is_policy_objective_exactly(self, weight):
        payoff = PAYOFFS_BY_NAME[weight]
        rng = np.random.default_rng(12)
        for trial in range(40):
            capped = trial % 2 == 1
            if capped:  # a trimmed chain: the last strike prices at intrinsic value, c = 0
                nc = trimmed_route_chain(rng, int(rng.integers(1, 8)), False, True)
            else:
                nc = random_consistent_chain(rng)
            assert (lower._tail_constant(nc) == 0.0) == capped
            for zeta in edge_policies(nc, rng):
                assert lower._policy_state(nc, payoff, zeta).value == policy_objective(nc, payoff, zeta)

    def test_each_payoff_function_is_called_once_per_state(self):
        calls = Counter()

        def counted(name, fn):
            def wrapped(x):
                calls[name] += 1
                return fn(x)

            return wrapped

        payoff = replace(VANILLA, value=counted("value", VANILLA.value), slope=counted("slope", VANILLA.slope),
                         weight=counted("curvature", VANILLA.weight))
        rng = np.random.default_rng(13)
        for _ in range(10):
            nc = random_consistent_chain(rng)
            for zeta in edge_policies(nc, rng):
                calls.clear()
                lower._policy_state(nc, payoff, zeta)
                assert calls == {"value": 1, "slope": 1, "curvature": 1}


def edge_policies(nc, rng):
    """A random policy in the boxes, then the edges of the kernel: the last
    weight exactly 1 and one ulp below (the tail limit), a vanishing atom,
    dust atoms of at most ``_MIN_ATOM_WEIGHT`` (1e-16 and 1e-12), and an
    increment below -1e-12 (objective inf)."""
    sets = feasible_policy_sets(nc)
    zeta = sets[:, 0] + rng.uniform(size=nc.n) * (sets[:, 1] - sets[:, 0])
    yield zeta
    for last in (1.0, np.nextafter(1.0, 0.0)):
        yield np.append(zeta[:-1], last)
    if nc.n > 1:
        j = int(rng.integers(1, nc.n))
        for gap in (0.0, 1e-16, 1e-12, -1e-9):
            z = zeta.copy()
            z[j] = z[j - 1] + gap
            yield z


def two_form_atom(nchain, i, a, b):
    """``lower._atom`` as it stood before its one-form kernel: both forms on every pair, then a choice, unclipped."""
    lo = np.asarray(i) - 1
    with np.errstate(all="ignore"):
        k_lo, k_hi, s, w = nchain.k[lo], nchain.k[lo + 1], nchain.slopes[lo], b - a
        right = k_hi + (k_hi - k_lo) * (a - s) / w
        left = k_lo + (k_hi - k_lo) * (b - s) / w
    return np.where(s - a <= b - s, right, left)


def two_form_segment_value(nchain, payoff, i, a, b):
    """``lower._segment_value`` on ``two_form_atom``, with its two full ``np.where`` passes."""
    k = nchain.k
    w = b - a
    live = w > lower._MIN_ATOM_WEIGHT
    chi = np.clip(two_form_atom(nchain, i, a, b), k[i - 1], k[i])
    with np.errstate(all="ignore"):
        return np.where(live, w * payoff.value(chi), np.where(w >= -1e-12, 0.0, np.inf))


def two_form_solve_on_grids(nchain, payoff, grids):
    """``lower._solve_on_grids`` on ``two_form_segment_value``, with a new (g, g) sum per interval."""
    n, g = grids.shape
    V = lower._tail_value(nchain, payoff, grids[n - 1])
    choices = np.zeros((n, g), dtype=int)
    block = lower._GRID_BLOCK // (g * g)
    for stop in range(n - 1, 0, -block):
        j = np.arange(max(stop - block, 0) + 1, stop + 1)
        terms = two_form_segment_value(nchain, payoff, j[:, None, None] + 1, grids[j - 1][:, :, None],
                                       grids[j][:, None, :])
        for jj in range(j.size - 1, -1, -1):
            M = terms[jj] + V[None, :]
            choices[j[jj]] = np.argmin(M, axis=1)
            V = M[np.arange(g), choices[j[jj]]]
    i = int(np.argmin(two_form_segment_value(nchain, payoff, 1, 0.0, grids[0]) + V))
    policy = np.empty(n)
    policy[0] = grids[0][i]
    for j in range(1, n):
        i = int(choices[j][i])
        policy[j] = grids[j][i]
    return policy


def policy_grids(nc, g):
    sets = feasible_policy_sets(nc)
    return np.linspace(sets[:, 0], sets[:, 1], g, axis=1)


def assert_as_two_form(nc, payoff, grids):
    """The recursion on ``grids`` gets the two-form kernel's segment terms and policy, bit for bit.

    Every block of terms is checked as the recursion evaluates it.  Returns
    the smallest weight b - a of a grid pair.
    """
    segment_value, smallest = lower._segment_value, []

    def checked(nchain, payoff, i, a, b):
        terms = segment_value(nchain, payoff, i, a, b)
        assert np.array_equal(terms, two_form_segment_value(nchain, payoff, i, a, b), equal_nan=True)
        smallest.append(np.min(b - a))
        return terms

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lower, "_segment_value", checked)
        policy = lower._solve_on_grids(nc, payoff, grids)
    assert np.array_equal(policy, two_form_solve_on_grids(nc, payoff, grids))
    return min(smallest)


def assert_objective_as_two_form(nc, payoff, zeta):
    """The Newton kernel's atoms and both objective values equal the two-form kernel's on ``zeta``."""
    i, prev = np.arange(1, nc.n + 1), np.concatenate(([0.0], zeta[:-1]))
    clipped = np.clip(two_form_atom(nc, i, prev, zeta), nc.k[:-1], nc.k[1:])
    assert np.array_equal(lower._atom(nc, i, prev, zeta), clipped, equal_nan=True)
    value = np.sum(two_form_segment_value(nc, payoff, i, prev, zeta)) + lower._tail_value(nc, payoff, zeta[-1])
    assert policy_objective(nc, payoff, zeta) == float(value) == lower._policy_state(nc, payoff, zeta).value


class TestOneFormAtomKernel:
    """``_atom`` computes the form anchored at the nearer strike alone; every caller gets the same bits."""

    PAYOFFS = SUBHEDGE_PAYOFFS[:5]  # the five built-in weights

    def test_scale_chains(self):
        rng = np.random.default_rng(5)
        chains = [random_consistent_chain(rng) for _ in range(150)]
        chains += [trimmed_route_chain(rng, int(rng.integers(1, 9)), free, capped)
                   for free, capped in ((True, False), (False, True), (True, True)) for _ in range(25)]
        for nc in (nc.window for nc in chains):
            if nc.n < 1:
                continue
            for payoff in self.PAYOFFS:
                assert_as_two_form(nc, payoff, policy_grids(nc, 32))
                policy = lower._solve_on_grids(nc, payoff, policy_grids(nc, 32))
                for zeta in (policy, *edge_policies(nc, rng)):
                    assert_objective_as_two_form(nc, payoff, zeta)

    @pytest.mark.parametrize("grid", [8, 32, 256])
    @pytest.mark.parametrize("sigma", [0.2, 0.5])
    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_dense_chains(self, n, sigma, grid):
        nc = lognormal_chain(n, sigma)
        for payoff in self.PAYOFFS:
            assert_as_two_form(nc, payoff, policy_grids(nc, grid))

    @pytest.mark.parametrize("weight,strikes,puts", COLLINEAR_STRETCH_CHAINS)
    def test_collinear_quotes(self, weight, strikes, puts):
        # Collinear quotes collapse an interval to one point: every grid pair about it has w >= 0, and some w = 0.
        nc = chain_of(strikes, puts)
        grids = policy_grids(nc, 8)
        assert np.any(np.ptp(grids, axis=1) == 0.0)
        for payoff in self.PAYOFFS:
            assert assert_as_two_form(nc, payoff, grids) == 0.0

    def test_a_grid_one_ulp_past_its_edge(self):
        # The last point of interval 1 lies one ulp above the edge it shares with
        # interval 2, so the pair of that point and the edge has w = -1 ulp.
        nc = lognormal_chain(50, 0.2)
        grids = policy_grids(nc, 8)
        grids[0, -1] = np.nextafter(grids[0, -1], 2.0)
        for payoff in self.PAYOFFS:
            assert -1e-15 < assert_as_two_form(nc, payoff, grids) < 0.0


class TestReconstruct:
    def test_the_escaped_mean_prices_at_the_tail_slope(self):
        # Mass m escapes and the last atom sits one ulp past k_n, so the hedge takes that atom's tangent,
        # slope 1/3 under corridor-down:1.5, beyond k_n: it costs the measure integral plus m / 3, where the
        # check once asked for the integral alone and raised.
        nc = chain_of([1.3666400344345075, 1.5176703536394367], [0.5631485812340449, 0.687269917739869])
        measure = AtomicMeasure(np.array([0.6814032139335465, 1.517670353639437]),
                                np.array([0.8218305910974543, 0.17816940889264488]), 0.16959956411545862)
        payoff = make_payoff(WeightSpec.corridor_down(1.5))
        port = reconstruct_subhedge(nc, payoff, measure)
        assert port.forward == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert port.setup_cost(nc) == pytest.approx(measure.integrate(payoff) + measure.mean_at_infinity / 3.0,
                                                    abs=1e-8)

    def test_regular_portfolio(self):
        nc = single_put_chain(0.4)
        sol = dp_lower_bound(nc, INVERSE)
        port = reconstruct_subhedge(nc, INVERSE, sol.measure)
        assert port.cash == pytest.approx(0.6667, abs=1e-3)
        assert port.forward == pytest.approx(-0.1111, abs=1e-3)
        assert port.puts[0] == pytest.approx(5.0 / 3.0, abs=1e-3)

    def test_boundary_portfolio_zero_cash_forward(self):
        nc = single_put_chain(0.6)
        sol = dp_lower_bound(nc, INVERSE)
        port = reconstruct_subhedge(nc, INVERSE, sol.measure)
        assert port.cash == pytest.approx(0.0, abs=1e-9)
        assert port.forward == pytest.approx(0.0, abs=1e-9)
        assert port.puts[0] == pytest.approx(1.0 / 0.36, abs=1e-3)

    def test_boundary_portfolio_negative_cash(self):
        nc = single_put_chain(0.7)
        sol = dp_lower_bound(nc, INVERSE)
        port = reconstruct_subhedge(nc, INVERSE, sol.measure)
        assert port.cash == pytest.approx(-0.8, abs=1e-3)
        assert port.forward == pytest.approx(0.0, abs=1e-9)
        assert port.puts[0] == pytest.approx(4.0, abs=1e-3)

    def test_subhedge_contract_on_random_chains(self, no_grid_lp):
        rng = np.random.default_rng(8)
        for _ in range(200):
            nc = random_consistent_chain(rng)
            for payoff in SUBHEDGE_PAYOFFS:
                sol = dp_lower_bound(nc, payoff)
                assert sol.value <= dp_lower_bound(nc, payoff, grid=200).value + 1e-12
                assert_subhedge_contract(nc, payoff, sol.measure)

    @pytest.mark.parametrize("weight,strikes,puts", COLLINEAR_STRETCH_CHAINS)
    def test_collinear_stretch_stays_under_the_payoff(self, no_grid_lp, weight, strikes, puts):
        nc = chain_of(strikes, puts)
        payoff = make_payoff(parse_weight(weight))
        assert_subhedge_contract(nc, payoff, dp_lower_bound(nc, payoff).measure)

    def test_free_nodes_keep_the_chord_where_it_stays_under_the_payoff(self, no_grid_lp):
        # no atom lies in (k_1, k_5] (the policy intervals there are rounding
        # wide); the chord from k_1 to k_5 stays under the payoff and needs
        # 905 units at k_1, while the lower neighbouring tangents need 2.7e5
        nc = chain_of(
            [0.07606919616426641, 0.45937531308236806, 0.5153838187607662, 0.600091004189346,
             0.6018453475254982, 0.9547767363583692, 1.1959809942551785, 1.3008512137634929],
            [2.3678752787871274e-04, 2.3729478112139287e-03, 2.6850825256847454e-03, 3.1571546300396720e-03,
             3.1669315639121435e-03, 8.2422528631681882e-02, 2.2339083159174461e-01, 3.1092101151461227e-01],
        )
        measure = dp_lower_bound(nc, INVERSE).measure
        assert_subhedge_contract(nc, INVERSE, measure)
        port = reconstruct_subhedge(nc, INVERSE, measure)
        assert np.max(np.abs(port.puts)) == pytest.approx(904.7587799662043, rel=1e-9)
        assert np.max(np.abs(port.puts[1:4])) <= 1e-9

    def test_infinite_slope_atom_at_origin_next_to_a_free_node(self, no_grid_lp):
        # p_1 / k_1 = (p_2 - p_1) / (k_2 - k_1): every law consistent with the
        # quotes holds an atom at 0, where gamma's slope is -inf, and k_1 is a
        # free node whose nearest atom on the left is that atom
        nc = chain_of([0.5, 1.0, 1.5], [0.05, 0.1, 0.55])
        measure = dp_lower_bound(nc, GAMMA).measure
        assert measure.atoms[0] == 0.0 and measure.atoms[1] > nc.k[2]
        assert_subhedge_contract(nc, GAMMA, measure)
        # The touch is the largest c with gap lambda(0) - lambda(c) + c lambda'(c)
        # = c at most 1e-9, not the sample k_1 10^-j below it (5e-10).
        gap = GAMMA.value(0.0) - reconstruct_subhedge(nc, GAMMA, measure).payoff(0.0)
        assert 0.999e-9 <= gap <= 1e-9

    def test_a_measure_without_atoms_is_refused(self):
        # reconstruct_subhedge takes a caller's measure: with no atom there is no tangent to build on.
        with pytest.raises(ReconstructionFailure, match="the measure has no atoms"):
            reconstruct_subhedge(single_put_chain(0.4), INVERSE, AtomicMeasure([], []))

    def test_failure_names_the_check_and_its_size(self):
        # Away from the optimum the tangents at the atom and at the tail atom
        # miss each other at k_1 by the gradient g; the lower one wins there,
        # so the hedge misses the tail atom by -g, or the first atom by
        # g chi / k_1.
        nc = single_put_chain(0.4)
        zeta = np.array([feasible_policy_sets(nc)[0].mean()])
        measure = measure_of(nc, zeta)
        g = lower._policy_state(nc, INVERSE, zeta).grad[0]
        expected = -g if g < 0.0 else g * measure.atoms[0] / nc.k[1]
        with pytest.raises(ReconstructionFailure, match="contact") as failure:
            reconstruct_subhedge(nc, INVERSE, measure)
        reported = float(re.search(r"misses the payoff by (\S+)", str(failure.value)).group(1))
        assert reported == pytest.approx(expected, rel=1e-2)


class TestExactDomination:
    def test_piece_kernel_matches_a_brute_force_grid(self):
        # random piecewise-linear hedges, their chords above and below the
        # payoff, some starting at 0; both corridor barriers fall inside a
        # piece.  The kernel's excess is never below the grid's.
        rng = np.random.default_rng(41)
        xs = np.linspace(0.0, 3.0, 400_001)
        for payoff in SUBHEDGE_PAYOFFS:
            for trial in range(8):
                knots = np.sort(rng.uniform(0.02, 3.0, size=int(rng.integers(2, 12))))
                if payoff.barrier is not None:
                    knots = knots[np.abs(knots - payoff.barrier) > 0.05]
                knots = np.unique(np.concatenate((knots, [0.05, 3.0], [0.0] if trial % 2 else [])))
                with np.errstate(all="ignore"):
                    ys = np.where(knots > 0.0, payoff.value(knots), 0.0) + rng.normal(scale=0.05, size=knots.size)
                excess, where = lower._piece_excess(payoff, knots[:-1], knots[1:], ys[:-1], ys[1:])
                with np.errstate(all="ignore"):
                    at_where = np.where(where > 0.0, payoff.value(where), payoff.origin_value)
                    gap = np.interp(xs, knots, ys) - np.where(xs > 0.0, payoff.value(xs), payoff.origin_value)
                np.testing.assert_allclose(excess, np.interp(where, knots, ys) - at_where, rtol=0.0, atol=1e-12)
                for j in range(knots.size - 1):
                    on = (xs >= knots[j]) & (xs <= knots[j + 1])
                    assert knots[j] <= where[j] <= knots[j + 1]
                    assert excess[j] >= np.max(gap[on]) - 1e-12, (payoff.kind, j)

    def test_a_tail_steeper_than_the_asymptotic_slope_never_dominates(self):
        # Vanilla's slope tends to 0, so a hedge that rises past its last strike crosses it somewhere beyond.
        port = HedgePortfolio(cash=-10.0, forward=0.5, puts=np.zeros(1), strikes=np.array([1.2]))
        assert lower._worst_excess(port, VANILLA) == (math.inf, lower._FAR * 1.2)
        assert not dominates_below(port, VANILLA)

    def test_lifted_inverse_subhedge_dominates_exactly(self):
        # the tail solve stops at the touching ray, here the tail atom's
        # tangent; a lift judged on a sampled grid rose to 1.0e-8 above the
        # payoff at x = 2.0788
        nc = lognormal_chain(50)
        _, port, existence = compute_lower(nc, INVERSE)
        assert existence.verdict == "guaranteed" and -0.3 < port.forward < 0.0
        excess, _ = lower._worst_excess(port, INVERSE)
        assert excess <= 1e-12
        assert dominates_below(port, INVERSE)

    @pytest.mark.parametrize("weight,strike,put,verdict", [
        ("corridor-down:0.9", 1.7064293986584194, 0.8959031392142459, "undetermined"),
        ("inverse", 2.2804489089119024, 1.440384093368258, "fails"),
    ])
    def test_flat_tail_stays_exactly_flat(self, weight, strike, put, verdict):
        # boundary policies: the flat tail is admissible, so the tail solve
        # returns its cap 0 exactly; a slope of -1e-12 would flip the verdict
        nc = chain_of([strike], [put])
        sol, port, existence = compute_lower(nc, make_payoff(parse_weight(weight)))
        assert sol.measure.mean_at_infinity > 0.0
        assert port.forward == 0.0
        assert existence.verdict == verdict

    @pytest.mark.parametrize("weight", ["inverse", "corridor-up:1.0", "custom"])
    def test_tail_slope_touches_the_payoff(self, weight):
        # from points under the payoff at k_n, the solved ray stays under
        # it and sits within a margin of the sampled steepest one
        payoff = PAYOFFS_BY_NAME[weight]
        kn = 1.5
        xs = kn + np.geomspace(1e-6, 1e7, 200_001)
        for y in float(payoff.value(kn)) - np.array([1e-3, 0.1, 1.0]):
            cap = payoff.asymptotic_slope
            s = lower._tail_slope(payoff, kn, y, cap)
            best = min(float(np.min((payoff.value(xs) - y) / (xs - kn))), cap)
            assert s <= best + 1e-12
            assert s >= best - 1e-9
            assert np.all(y + s * (xs - kn) <= payoff.value(xs) + 1e-14 * (1.0 + xs))

    def test_tail_slope_returns_the_cap_exactly(self):
        # a ray at the cap that stays under the payoff is not backed off
        assert lower._tail_slope(INVERSE, 2.0, -0.1, 0.0) == 0.0
        assert lower._tail_slope(INVERSE, 2.0, 0.0, 0.0) == 0.0
        payoff = PAYOFFS_BY_NAME["corridor-down:0.9"]
        assert lower._tail_slope(payoff, 1.7, 0.0, 0.0) == 0.0
        assert lower._tail_slope(payoff, 1.7, 1e-17, 0.0) == 0.0

    def test_tighten_tail_makes_no_domination_check(self, monkeypatch):
        # a flat tail 0.1 under 1/x + x/4 at k_n = 1.5: the lift to slope 1/4
        # would cross the payoff, so it stops at the touching ray
        payoff = affine_plus_inverse(0.25)
        nc = single_put_chain(0.7, strike=1.5)
        port = HedgePortfolio(cash=float(payoff.value(1.5)) - 0.1, forward=0.0, puts=[0.0], strikes=[1.5])

        def refuse(*args, **kwargs):
            raise AssertionError("dominates_below was called")

        monkeypatch.setattr(lower, "dominates_below", refuse)
        tight = tighten_tail(nc, payoff, port)
        monkeypatch.undo()
        assert port.forward < tight.forward < 0.25
        assert lower._worst_excess(tight, payoff)[0] <= 1e-12

    def test_failure_reports_the_exact_excess(self):
        # a hedge whose chord over [1, 2] bulges 1e-6 above 1/x at its
        # tangent point; a sampled grid would miss part of it
        port = HedgePortfolio(cash=1.5 + 1e-6, forward=-0.5, puts=[0.0, 0.0], strikes=[1.0, 2.0])
        excess, x = lower._worst_excess(port, INVERSE)
        assert x == pytest.approx(math.sqrt(2.0), rel=1e-6)
        assert excess == pytest.approx(1.5 + 1e-6 - math.sqrt(2.0), rel=1e-12)
        assert not dominates_below(port, INVERSE)


def vectorized_bracket_root(fn, target, lo, hi, tol=-math.inf):
    """``lower._bracket_root`` as it stood before its float phase: every step on arrays."""
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    target = np.broadcast_to(np.asarray(target, dtype=float), lo.shape)
    with np.errstate(all="ignore"):
        f_lo, f_hi = fn(lo) - target, fn(hi) - target
        lo, hi = np.where(f_hi < 0.0, hi, lo), np.where(f_lo >= 0.0, lo, hi)
        i = np.flatnonzero(lo < hi)
        a, b, fa, fb, t, kept = lo[i], hi[i], f_lo[i], f_hi[i], target[i], np.zeros(i.size)
        for _ in range(100):
            if i.size == 0:
                break
            x = (fb * a - fa * b) / (fb - fa)
            x = np.where((x > a) & (x < b), x, a + 0.5 * (b - a))
            f = fn(x) - t
            up = f >= 0.0
            fa = np.where(up, np.where(kept < 0, 0.5, 1.0) * fa, f)
            fb = np.where(up, f, np.where(kept > 0, 0.5, 1.0) * fb)
            a, b, kept = np.where(up, a, x), np.where(up, x, b), np.where(up, -1.0, 1.0)
            go = (np.nextafter(a, b) < b) & ~(np.abs(f) * (b - a) <= tol)
            if not go.all():
                lo[i[~go]], hi[i[~go]] = a[~go], b[~go]
                i, a, b, fa, fb, t, kept = i[go], a[go], b[go], fa[go], fb[go], t[go], kept[go]
        lo[i], hi[i] = a, b
    return lo, hi


# Brackets at the edges of the float phase: (fn, lo, hi, target, tol, crossing).
# "flat" takes fa = -0.0 against fb = 0.0 once the least subnormal is halved,
# a zero division on floats; "cap" is still open after 100 steps.
FLOAT_PHASE_EDGES = {
    "flat": (lambda x: np.where(x >= 1.7, 0.0, -5e-324), 0.5, 3.0, 0.0, -math.inf, 1.7),
    "nan end": (lambda x: np.where(x > 0.0, np.log(x), np.nan), 0.0, 3.0, 0.2, -math.inf, math.exp(0.2)),
    "-inf end": (np.log, 0.0, 3.0, 0.2, -math.inf, math.exp(0.2)),
    "+inf end": (lambda x: 1.0 / (2.0 - x), 0.0, 2.0, 1.5, -math.inf, 2.0 - 1.0 / 1.5),
    "tol": (lambda x: x**3, 0.5, 2.0, 1.3, 1e-12, 1.3 ** (1.0 / 3.0)),
    "adjacent": (lambda x: x**3, 0.5, 2.0, 2.0, -math.inf, 2.0 ** (1.0 / 3.0)),
    "cap": (lambda x: np.where(x >= 1e-300, 1.0, -1.0), 0.0, 1e300, 0.0, -math.inf, 1e-300),
}


class TestBracketRoot:
    def test_a_batch_gives_each_bracket_as_solved_alone(self):
        # fn is nondecreasing on [1, oo): a tail-solve touch function
        # 1/x^2 - 2/x with a unit step at 2e7.  Brackets stop at once (closed,
        # or the target outside), by tol, at adjacent floats across the step,
        # or after many steps on [1, 1e7], in an interleaved order.
        def fn(x):
            return 1.0 / np.square(x) - 2.0 / x + (x >= 2e7)

        rng = np.random.default_rng(17)
        lo, hi, target = [], [], []
        for kind in rng.permutation(np.repeat(np.arange(5), 6)):
            if kind == 0:
                a = b = rng.uniform(1.0, 3.0)
                t = rng.normal()
            elif kind == 1:
                a, b = 2.0, 3.0
                t = -1.5
            elif kind == 2:
                a = rng.uniform(1.5, 3.0)
                b = a * rng.uniform(1.2, 2.0)
                t = float(fn(np.array([rng.uniform(a, b)]))[0])
            elif kind == 3:
                a, b = rng.uniform(1e7, 1.9e7), rng.uniform(2.1e7, 3e7)
                t = rng.uniform(0.1, 0.9)
            else:
                a, b = 1.0, 1e7
                t = -10.0 ** rng.uniform(-6.5, -3.0)
            lo.append(a)
            hi.append(b)
            target.append(t)
        lo, hi, target = map(np.array, (lo, hi, target))
        tol = 1e-15
        got = lower._bracket_root(fn, target, lo, hi, tol=tol)
        stops, steps = set(), []
        for j in range(lo.size):
            calls = Counter()

            def counted(x):
                calls["fn"] += 1
                return fn(x)

            a, b = lower._bracket_root(counted, target[j], lo[j : j + 1], hi[j : j + 1], tol=tol)
            assert (got[0][j], got[1][j]) == (a[0], b[0]), j
            steps.append(calls["fn"] - 2)
            stops.add("at once" if steps[-1] == 0 else "adjacent" if np.nextafter(a[0], b[0]) == b[0] else "tol")
        assert stops == {"at once", "adjacent", "tol"}
        assert max(steps) >= 30

    @pytest.mark.parametrize("case", FLOAT_PHASE_EDGES)
    def test_the_float_phase_takes_the_vectorized_steps(self, case):
        # the bracket alone (all on floats), inside a batch of four (on arrays
        # until its three companions close, 2 to 8 floats wide around the
        # crossing) and under the all-array update end on the same bits
        fn, lo, hi, target, tol, r = FLOAT_PHASE_EDGES[case]
        sizes = []

        def counted(x):
            sizes.append(x.size)
            return fn(x)

        alone = lower._bracket_root(counted, target, np.array([lo]), np.array([hi]), tol=tol)
        steps = len(sizes) - 2
        los, his = [lo], [hi]
        for m in (1, 2, 4):
            los.append(r - m * math.ulp(r))
            his.append(r + m * math.ulp(r))
        targets = np.concatenate(([target], fn(np.array(his[1:]))))
        sizes.clear()
        batch = lower._bracket_root(counted, targets, np.array(los), np.array(his), tol=tol)
        assert 1 in sizes and sizes.index(1) > 2  # arrays first, then floats
        reference = vectorized_bracket_root(fn, targets, np.array(los), np.array(his), tol=tol)
        assert (batch[0] == reference[0]).all() and (batch[1] == reference[1]).all()
        assert (alone[0][0], alone[1][0]) == (batch[0][0], batch[1][0])
        a, b = alone[0][0], alone[1][0]
        if case == "cap":
            assert steps == 100 and math.nextafter(a, b) < b
        elif case == "tol":
            assert math.nextafter(a, b) < b and a <= r <= b
        else:
            assert steps < 100 and math.nextafter(a, b) == b

    def test_slope_crossings_close_on_the_last_float_before(self):
        # The bracket rule on payoff slopes, as the atom release uses it: hi
        # where the slope stays below the target, lo where it starts at or
        # above, else the last float x with slope(x) < target <= slope(next
        # float).  Targets inside, below and above each interval's slope
        # range; a NaN target, never reached, closes on the float below hi.
        for weight in CLI_WEIGHTS + ("inverse",):
            payoff, rng = PAYOFFS_BY_NAME[weight], np.random.default_rng(7)
            lo = np.sort(rng.uniform(0.05, 3.0, size=60))
            hi = lo * rng.uniform(1.0001, 2.0, size=60)
            inside = payoff.slope(rng.uniform(lo, hi))
            target = np.concatenate((inside, payoff.slope(lo) - 1.0, payoff.slope(hi) + 1.0))
            lo, hi = np.tile(lo, 3), np.tile(hi, 3)
            x = lower._bracket_root(payoff.slope, target, lo, hi)[0]
            stays_below, starts_above = payoff.slope(hi) < target, payoff.slope(lo) >= target
            crossing = ~stays_below & ~starts_above
            assert stays_below.any() and starts_above.any() and crossing.any(), weight
            assert np.array_equal(x[stays_below], hi[stays_below]), weight
            assert np.array_equal(x[starts_above], lo[starts_above]), weight
            assert np.all(payoff.slope(x[crossing]) < target[crossing]), weight
            assert np.all(payoff.slope(np.nextafter(x[crossing], np.inf)) >= target[crossing]), weight
            nan = lower._bracket_root(payoff.slope, math.nan, np.array([1.0]), np.array([2.0]))[0]
            assert nan[0] == np.nextafter(2.0, 0.0), weight

    def test_no_bracket_makes_no_call(self):
        def refuse(x):
            raise AssertionError("fn was called")

        lo, hi = lower._bracket_root(refuse, 0.0, np.array([]), np.array([]))
        assert lo.shape == hi.shape == (0,) and lo.dtype == hi.dtype == float


def assert_same_as_the_root_find(nc, payoff):
    """``lp_lower_bound`` with the closed-form slope inverse and without it: the
    same value and measure, bit for bit, and hedges within 1e-12."""
    value, port, measure = lp_lower_bound(nc, payoff)
    ref_value, ref_port, ref_measure = lp_lower_bound(nc, replace(payoff, slope_inverse=None))
    assert value == ref_value
    assert np.array_equal(measure.atoms, ref_measure.atoms)
    assert np.array_equal(measure.weights, ref_measure.weights)
    assert measure.mean_at_infinity == ref_measure.mean_at_infinity
    np.testing.assert_allclose(port.puts, ref_port.puts, rtol=0.0, atol=1e-12)
    assert port.cash == pytest.approx(ref_port.cash, rel=0.0, abs=1e-12)
    assert port.forward == pytest.approx(ref_port.forward, rel=0.0, abs=1e-12)


class TestClosedFormTangency:
    @pytest.mark.parametrize("weight", CLI_WEIGHTS + ("inverse",))
    def test_same_answers_as_the_root_find_on_random_chains(self, weight):
        payoff = PAYOFFS_BY_NAME[weight]
        rng = np.random.default_rng(161)
        for _ in range(40):
            assert_same_as_the_root_find(random_consistent_chain(rng, max_strikes=8), payoff)
        for free, capped in ((True, False), (False, True)):
            assert_same_as_the_root_find(trimmed_route_chain(rng, int(rng.integers(1, 8)), free, capped), payoff)

    @pytest.mark.parametrize("weight,strikes,puts", RELEASE_SNAP_CHAINS)
    def test_release_lands_on_the_root_finds_float(self, weight, strikes, puts):
        assert_same_as_the_root_find(chain_of(strikes, puts), PAYOFFS_BY_NAME[weight])

    def test_dense_custom_twin_of_vanilla_opens_every_bracket_at_once(self, monkeypatch):
        # the -ln x payoff given as a custom payoff, weight included, has no
        # closed-form inverse: its exact domination root-finds all 999 pieces
        # of the hedge in one batch, the array phase of _bracket_root
        twin = make_payoff(twin_weight("vanilla", lambda x: -np.log(x), lambda x: -1.0 / x, np.ones_like))
        nc = lognormal_chain(1000)
        batches = []
        bracket_root = lower._bracket_root

        def counted(fn, target, lo, hi, tol=-math.inf):
            batches.append(np.size(lo))
            return bracket_root(fn, target, lo, hi, tol)

        monkeypatch.setattr(lower, "_bracket_root", counted)
        value = lp_lower_bound(nc, twin)[0]
        assert max(batches) == 999
        assert value == lp_lower_bound(nc, VANILLA)[0] == 0.01999925674305537


class TestMergeAtoms:
    def test_matches_a_loop_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            nc = random_consistent_chain(rng)
            atoms = rng.uniform(0.0, 1.2 * nc.k[-1], size=int(rng.integers(1, 30)))
            atoms[: atoms.size // 4] = rng.choice(nc.k, size=atoms.size // 4)  # some on a strike
            weights = rng.uniform(0.01, 1.0, size=atoms.size)
            merged = lower._merge_atoms(nc, atoms, weights)
            idx = np.searchsorted(nc.k, atoms, side="right")
            ref_a, ref_w = [], []
            for iv in sorted(set(idx.tolist())):
                sel = idx == iv
                ref_w.append(weights[sel].sum())
                ref_a.append(np.dot(atoms[sel], weights[sel]) / ref_w[-1])
            np.testing.assert_allclose(merged.weights, ref_w, rtol=1e-14)
            np.testing.assert_allclose(merged.atoms, ref_a, rtol=1e-14)

    def test_one_atom_per_interval_is_bit_identical(self):
        # the recursion route: each interval holds one atom, which stays as it is
        rng = np.random.default_rng(6)
        for _ in range(50):
            nc = random_consistent_chain(rng)
            sol = dp_lower_bound(nc, VANILLA)
            merged = lower._merge_atoms(nc, sol.measure.atoms, sol.measure.weights)
            assert np.array_equal(merged.atoms, sol.measure.atoms * sol.measure.weights / sol.measure.weights)
            assert np.array_equal(merged.weights, sol.measure.weights)


class TestTightenTail:
    def test_lifts_to_asymptotic_slope(self):
        # reconstruct_subhedge lifts the flat tail of the construction and
        # checks the lifted hedge: it costs 2.25, not the measure integral 2.125
        payoff = affine_plus_inverse(0.25)
        nc = single_put_chain(0.7)
        sol = dp_lower_bound(nc, payoff)
        flat = lower._tangent_construction(nc, payoff, sol.measure)
        assert flat.setup_cost(nc) == pytest.approx(sol.measure.integrate(payoff), abs=1e-8)
        tight = reconstruct_subhedge(nc, payoff, sol.measure)
        theta = tight.forward - flat.forward
        assert theta == pytest.approx(0.25, abs=1e-6)
        assert tight.setup_cost(nc) > sol.measure.integrate(payoff) + 0.1
        assert tight.setup_cost(nc) == pytest.approx(sol.value, abs=1e-6)

    def test_noop_when_slope_matched(self):
        payoff = affine_plus_inverse(0.25)
        nc = single_put_chain(0.7)
        sol = dp_lower_bound(nc, payoff)
        port = lower._tangent_construction(nc, payoff, sol.measure)
        tight = tighten_tail(nc, payoff, port)
        again = tighten_tail(nc, payoff, tight)
        assert again.forward == tight.forward
        assert again.cash == tight.cash

    @pytest.mark.parametrize("name", ["vanilla", "gamma", "corridor-up:1.0", "corridor-down:0.9", "inverse",
                                      "1/x + x/4"])
    def test_lifted_exactly_where_mass_escapes(self, name):
        payoff = affine_plus_inverse(0.25) if name == "1/x + x/4" else make_payoff(parse_weight(name))
        rng = np.random.default_rng(30)
        for draw in range(40):
            nc = random_consistent_chain(rng)
            # the hedge reconstruct_subhedge checks is the one reported, lifted once
            sol, port, _ = compute_lower(nc, payoff)
            flat = lower._tangent_construction(nc, payoff, sol.measure)
            want = tighten_tail(nc, payoff, flat) if sol.measure.mean_at_infinity > 0.0 else flat
            assert (port.cash, port.forward) == (want.cash, want.forward), draw
            assert np.array_equal(port.puts, want.puts), draw

    def test_not_invoked_when_existence_guaranteed(self):
        # pipeline guard: tail-moment divergence keeps the optimal tail atom
        # finite, so the reported subhedge keeps its tangent tail slope
        nc = single_put_chain(0.4)
        sol, port, existence = compute_lower(nc, VANILLA)
        assert existence.condition == "iv"
        assert port.forward < 0.0  # tangent slope at the tail atom, no lift


class TestPortfolioUnits:
    def test_payoff_matches_the_dense_formula(self):
        # cash + forward x + sum_i q_i (k_i - x)^+ over grid x strikes, on
        # points below, on, between and above the strikes; mixed-sign put
        # positions up to 1e5 units, normalized and currency strikes
        rng = np.random.default_rng(17)
        for trial in range(200):
            n = int(rng.integers(1, 40))
            k = np.sort(rng.uniform(0.05, 3.0, size=n)) * (100.0 if trial % 2 else 1.0)
            port = lower.HedgePortfolio(
                cash=rng.normal(), forward=rng.normal(),
                puts=rng.normal(size=n) * 10.0 ** rng.uniform(-2, 5, size=n), strikes=k,
            )
            x = np.concatenate([
                [0.0], rng.uniform(0.0, k[0], 3), k, 0.5 * (k[:-1] + k[1:]),
                rng.uniform(k[0], k[-1], 10), k[-1] * rng.uniform(1.0, 10.0, 3),
            ])
            live = np.maximum(k[None, :] - x[:, None], 0.0)
            dense = port.cash + port.forward * x + live @ port.puts
            scale = abs(port.cash) + abs(port.forward) * x + live @ np.abs(port.puts)
            np.testing.assert_array_less(np.abs(port.payoff(x) - dense), 1e-14 * scale)
            for i in range(0, x.size, 7):
                value = port.payoff(float(x[i]))
                assert isinstance(value, float)
                assert abs(value - dense[i]) < 1e-14 * scale[i]

    def test_puts_and_strikes_share_one_shape(self):
        with pytest.raises(ValueError, match="one shape"):
            HedgePortfolio(1.5, 0.3, [1.0, -0.5], [1.0, 1.5, 2.0])

    def test_strikes_strictly_increase(self):
        for strikes in ([1.5, 1.0, 2.0], [1.0, 1.0, 2.0], [1.0, np.nan, 2.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                HedgePortfolio(1.5, 0.3, [1.0, -0.5, 0.2], strikes)


class TestAtomicMeasure:
    def test_atoms_and_weights_share_one_shape(self):
        for atoms, weights in (([0.5, 1.5], [1.0]), ([[0.5, 1.5]], [[0.5, 0.5]])):
            with pytest.raises(ValueError, match="one shape"):
                AtomicMeasure(atoms, weights)

    @pytest.mark.parametrize("fields,problem", [
        ({"atoms": [-0.25, 3.0]}, "negative atom position"),
        ({"weights": [8.0 / 9.0, -1.0 / 9.0]}, "negative weight"),
        ({"weights": [8.0 / 9.0, 2.0 / 9.0]}, "weights sum to 1.11111111111"),
        ({"mean_at_infinity": 0.1}, "forward constraint off by 0.1"),
        # the atom at 0.75 split in two about it: the sums, the mean and the put stay
        ({"atoms": [0.7, 0.8, 3.0], "weights": [4.0 / 9.0, 4.0 / 9.0, 1.0 / 9.0]},
         "more than one atom in an inter-strike interval"),
    ], ids=["atom", "weight", "sum", "forward", "interval"])
    def test_check_names_each_corrupted_field(self, fields, problem):
        # The optimal law of the single put at 0.4: atoms 0.75 and 3 of weights 8/9 and 1/9.
        nc = single_put_chain(0.4)
        measure = measure_of(nc, np.array([8.0 / 9.0]))
        assert measure.check(nc) == []
        assert problem in replace(measure, **fields).check(nc)


class TestGridLp:
    def test_golden_instance(self):
        nc = single_put_chain(0.4)
        sol = dp_lower_bound(nc, INVERSE)
        value = grid_lp_oracle(nc, INVERSE, build_lp_grid(nc, INVERSE, extra=sol.measure.atoms))
        assert value == pytest.approx(11.0 / 9.0, abs=2e-3)

    def test_affine_payoff_replicates_exactly(self):
        payoff = make_payoff(WeightSpec.custom(lambda x: x - 1.0, np.ones_like, origin_value=-1.0, asymptotic_slope=1.0,
                                               tail_curvature_divergent=False, affine_tail_threshold=0.0))
        rng = np.random.default_rng(14)
        for _ in range(5):
            nc = random_consistent_chain(rng)
            assert grid_lp_oracle(nc, payoff, build_lp_grid(nc, payoff)) == pytest.approx(0.0, abs=1e-9)

    def test_matches_tightened_portfolio_value(self):
        payoff = affine_plus_inverse(0.25)
        nc = single_put_chain(0.7)
        sol = dp_lower_bound(nc, payoff)
        port = reconstruct_subhedge(nc, payoff, sol.measure)  # lifted to the asymptotic slope 0.25
        value = grid_lp_oracle(nc, payoff, build_lp_grid(nc, payoff, extra=sol.measure.atoms))
        assert value == pytest.approx(port.setup_cost(nc), abs=2e-3)

    def test_lp_route_for_unsupported_chains(self):
        nc = chain_of([0.5, 1.2], [0.0, 0.4])  # free put below
        value, port, measure = lp_lower_bound(nc, GAMMA)
        assert measure.check(nc) == []
        assert window_excess(nc, GAMMA, port) <= 1e-8

    def test_a_grid_that_misses_a_window_strike_is_refused(self):
        nc = single_put_chain(0.4)
        grid = build_lp_grid(nc, INVERSE)
        with pytest.raises(ValueError, match="the LP grid misses the window strike 1.2"):
            grid_lp_oracle(nc, INVERSE, grid[grid != 1.2])

    def test_a_solver_status_other_than_unbounded_is_reported(self, monkeypatch):
        # HiGHS status 4 (numerical difficulties) gives no value; the oracle raises with the solver's message.
        import scipy.optimize

        stopped = scipy.optimize.OptimizeResult(status=4, message="Numerical difficulties encountered.", fun=0.0)
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: stopped)
        nc = single_put_chain(0.4)
        with pytest.raises(RuntimeError, match="grid LP failed: Numerical difficulties encountered"):
            grid_lp_oracle(nc, INVERSE, build_lp_grid(nc, INVERSE))

    def test_unbounded_where_the_c1_condition_fails(self):
        # p_2 = (k_2 / k_1) p_1: all mass near 0 may sit at 0, where vanilla is infinite.
        nc = chain_of([0.8, 1.0, 1.2], [0.08, 0.1, 0.25])
        assert not check_c1(nc, VANILLA)
        with pytest.raises(lower.Unbounded):
            grid_lp_oracle(nc, VANILLA, build_lp_grid(nc, VANILLA))

    def test_a_one_strike_window_grids_its_strike_alone(self):
        nc = chain_of([1.0, 1.0 + 5e-13], [0.0, 0.0])  # the cap lies below the free puts: the window is the cap
        np.testing.assert_array_equal(build_lp_grid(nc, VANILLA), [1.0])

    def test_a_one_strike_window_gives_the_oracle_payoff_at_the_forward(self):
        # The one node value sits at the cap strike, 1 here, and the value is payoff(1).
        nc = chain_of([1.0, 1.0 + 5e-13], [0.0, 0.0])
        for payoff in SUBHEDGE_PAYOFFS:
            assert grid_lp_oracle(nc, payoff, build_lp_grid(nc, payoff)) == payoff.at_one()

    @pytest.mark.parametrize("weight,strikes,puts", LP_GRID_BELOW_FORWARD_CHAINS)
    def test_grid_reaches_the_forward(self, weight, strikes, puts):
        nc = chain_of(strikes, puts)
        assert nc.k[-1] < 0.2
        payoff = make_payoff(parse_weight(weight))
        value, port, measure = lp_lower_bound(nc, payoff)
        assert math.isfinite(value)
        assert measure.check(nc) == []
        assert window_excess(nc, payoff, port) <= 1e-8

    @pytest.mark.parametrize("weight,strikes,puts", ORACLE_FAILURE_CHAINS, ids=ORACLE_FAILURE_IDS)
    def test_former_failures_meet_the_bound(self, weight, strikes, puts):
        nc = chain_of(strikes, puts)
        payoff = make_payoff(parse_weight(weight))
        value, _, measure = lp_lower_bound(nc, payoff)
        for atoms in (None, measure.atoms):
            oracle = grid_lp_oracle(nc, payoff, build_lp_grid(nc, payoff, extra=atoms))
            assert math.isfinite(oracle)
            assert value - 1e-9 <= oracle <= value + 1e-3

    def test_cost_is_the_node_hedge_setup_cost(self):
        # The LP prices node values y and tail slope phi at q.y + c phi.
        rng = np.random.default_rng(20)
        chains = [random_consistent_chain(rng) for _ in range(10)] + [
            trimmed_route_chain(rng, n, free, capped)
            for n in range(1, 6) for free, capped in ((True, False), (False, True), (True, True))
        ]
        for nc in chains:
            window = nc.window
            q = np.diff(np.concatenate(([0.0], window.slopes, [1.0])))
            c = lower._tail_constant(window)
            for _ in range(5):
                y, phi = rng.normal(size=window.k.size), rng.normal()
                cost = lower._portfolio_from_nodes(nc, y, phi).setup_cost(nc)
                assert abs(q @ y + c * phi - cost) <= 1e-12 * (np.abs(q) @ np.abs(y) + c * abs(phi))

    def test_duality_sandwich_small(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            nc = random_consistent_chain(rng)
            for payoff in (VANILLA, GAMMA):
                sol = dp_lower_bound(nc, payoff)
                lp = grid_lp_oracle(nc, payoff, build_lp_grid(nc, payoff, extra=sol.measure.atoms))
                assert lp <= sol.value + 5e-3
                assert abs(lp - sol.value) <= 5e-3


@pytest.fixture(scope="module")
def dipped_chains():
    """600 chains from ``dipped_chain`` on default_rng(7)."""
    rng = np.random.default_rng(7)
    chains = []
    while len(chains) < 600:
        nc = dipped_chain(rng)
        if nc is not None:
            chains.append(nc)
    return chains


class TestDippedSlopes:
    """Chains convex only to within EQ_TOL: one slope dips below the one before it."""

    @pytest.mark.parametrize("weight", CLI_WEIGHTS + ("inverse",))
    def test_every_chain_solves_and_hedges(self, monkeypatch, dipped_chains, weight):
        # Fewer grid points only raise the oracle, which keeps the 600 LPs to about 2 s.
        monkeypatch.setattr(lower, "_LP_POINTS", 256)
        payoff = PAYOFFS_BY_NAME[weight]
        solved = 0
        for nc in dipped_chains:
            try:
                value, port, measure = lp_lower_bound(nc, payoff)
            except C1Violation:  # a dip at s_2 puts p_2 below (k_2 / k_1) p_1
                assert not check_c1(nc, payoff)
                continue
            assert lower._subhedge_checks(nc, payoff, measure, port) is None
            assert measure.check(nc) == []
            assert value <= oracle_value(nc, payoff, measure) + 1e-9
            solved += 1
        assert solved >= 300


class TestTrimmedRoute:
    """Free puts below and capped supports: the recursion on the trimmed chain."""

    @pytest.mark.parametrize("free,capped", [(True, False), (False, True), (True, True)],
                             ids=["free", "capped", "free-capped"])
    @pytest.mark.parametrize("weight", list(PAYOFFS_BY_NAME))
    def test_contract_on_random_chains(self, weight, free, capped):
        rng = np.random.default_rng(61)
        payoff = PAYOFFS_BY_NAME[weight]
        for n in range(1, 7):
            assert_trimmed_contract(trimmed_route_chain(rng, n, free, capped), payoff)

    @pytest.mark.parametrize("strikes,puts", CAPPED_GAMMA_CHAINS)
    def test_capped_gamma_chains_with_a_zero_tail_constant(self, strikes, puts):
        nc = chain_of(strikes, puts)
        assert abs(1.0 + nc.p[-1] - nc.k[-1]) <= 1e-15
        value, _, measure = assert_trimmed_contract(nc, GAMMA)
        assert math.isfinite(value)
        assert measure.mean_at_infinity == 0.0

    @pytest.mark.parametrize("weight", CLI_WEIGHTS + ("inverse",))
    @pytest.mark.parametrize("strikes,puts,intrinsic", NEAR_INTRINSIC_CAPS, ids=["currency-chain", "cap-at-2.85"])
    def test_cap_quoted_within_tolerance_of_intrinsic(self, strikes, puts, intrinsic, weight):
        # n_max alone decides the cap: no mass past k_top, and the band of the
        # chain quoted exactly at intrinsic value.  gamma raised a
        # ReconstructionFailure here, at an atom past the cap.
        nc = chain_of(strikes, puts)
        assert nc.n_max == nc.n and 1.0 + nc.p[-1] - nc.k[-1] > 1e-12
        assert lower._tail_constant(nc.window) == 0.0
        spec = parse_weight(weight)
        report = swap_rate_bounds(nc, spec)
        assert report.lower_measure.mean_at_infinity == 0.0
        assert np.all(report.lower_measure.atoms <= nc.k[nc.top_index])
        exact = swap_rate_bounds(chain_of(strikes, puts[:-1] + [intrinsic]), spec)
        for got, want in ((report.lower_value, exact.lower_value), (report.upper_value, exact.upper_value)):
            assert got == want if math.isinf(want) else abs(got - want) <= 1e-10

    def test_tail_constant_is_zero_exactly_on_a_capped_window(self):
        # c is the call value at the window's last strike: 0 when n_max caps
        # the window, positive when nothing does, a one-strike window included.
        rng = np.random.default_rng(39)
        chains = [trimmed_route_chain(rng, n, free, capped)
                  for n in range(1, 6) for free in (False, True) for capped in (False, True)]
        chains += [chain_of(strikes, puts) for strikes, puts, _ in NEAR_INTRINSIC_CAPS]
        chains += [chain_of([1.0 + 5e-13], [0.0]), chain_of([1.0 - 5e-13], [0.0]), chain_of([0.9], [0.0])]
        for nc in chains:
            window = nc.window
            c = lower._tail_constant(window)
            assert c == 0.0 if math.isfinite(window.n_max) else c > 0.0

    def test_free_chain_whose_mass_escapes(self):
        # The sampled grid LP reported 1.812976 here, with a subhedge of tail
        # slope 8.9e-4 that exceeded the payoff by 7.5 at x = 1e4.
        nc = chain_of([0.042078296033140075, 1.510576599569082], [0.0, 0.9588759777823509])
        value, port, measure = assert_trimmed_contract(nc, INVERSE)
        assert value == pytest.approx(1.8125772575, abs=1e-9)
        assert measure.mean_at_infinity > 0.0
        assert port.forward <= 0.0

    @pytest.mark.parametrize("weight", CLI_WEIGHTS + ("inverse",))
    def test_free_put_priced_above_zero(self, weight):
        # The put at 0.5 costs 1e-12 (n_min = 1).  A window that set it to 0
        # was not convex to EQ_TOL, and every weight raised.
        nc = chain_of(*FREE_PUT_CHAIN)
        assert (nc.n_min, nc.n_max) == (1, math.inf)
        assert_trimmed_contract(nc, PAYOFFS_BY_NAME[weight])

    @pytest.mark.parametrize("weight", ["vanilla", "inverse"])
    def test_no_origin_cap_above_a_free_put(self, weight):
        # The window starts at k_0 = 0.4.  Its first two quotes lie on a
        # ray through the origin to within 1e-12 (an atom of weight 1.15e-11
        # just above 0.5), which would fail the cheapest-to-deliver test had
        # the chain started at 0; from 0.4 no mass reaches the origin.
        nc = chain_of([0.4, 0.6, 0.7, 1.2, 2.0],
                      [0.0, 1.1499999885000001e-12, 2.2999999885e-12, 0.25000000000229994, 1.0])
        assert (nc.n_min, nc.n_max) == (1, 5)
        assert_trimmed_contract(nc, PAYOFFS_BY_NAME[weight])
