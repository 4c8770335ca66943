"""Contrasimulation preorder and contrasimilarity checking on finite LTSs.

The package decides the contrasimulation preorder by building and solving a
reachability game over subset-construction positions, and certifies every
verdict: holding checks come with a relation the independent checker in
:mod:`contrasim.relations` accepts, failing checks with a distinguishing
modal formula.
"""

from .aut import parse_aut, write_aut
from .ccs import (
    CcsProgram,
    CcsTerm,
    Choice,
    Ident,
    NIL,
    Nil,
    Parallel,
    Prefix,
    Restrict,
    expand_ccs,
    expand_ccs_roots,
    parse_ccs,
)
from .csgame import (
    AttackerPos,
    CsGame,
    SimPos,
    SwapPos,
    bounded_word_game_preorder,
    build_cs_game,
    cs_successors,
    decide_equivalence,
    decide_preorder,
    extract_contrasimulation,
    extract_distinguishing_formula,
    naive_single_step_preorder,
    solve_cs_game_locally,
    strategy_from_fc,
)
from .errors import ParseError, PositionBudgetError, StateBudgetError
from .game import (
    GameGraph,
    GameSolution,
    Player,
    PlayOutcome,
    PositionalStrategy,
    simulate_play,
    solve,
    validate_play,
)
from .hml import DelayNor, DelayObs, HmlFormula, TRUTH, Truth, format_formula, hml_satisfies
from .lts import TAU, Action, Lts, StateSet, Word, act
from .relations import (
    check_coupling,
    contrasim_preorder,
    contrasimulation_violation,
    fc_pairs,
    interleaved_compose,
    is_contrasimulation,
    is_weak_simulation,
    is_weak_simulation_words,
    strong_bisimilarity,
    weak_bisimilarity,
    weak_sim_preorder,
    weak_simulation_violation,
)

__version__ = "0.1.0"
