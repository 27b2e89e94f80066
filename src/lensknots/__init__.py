"""Exact arithmetic for once-punctured-torus knots in lens spaces.

The package mechanizes a classification: every non-null-homologous knot
in a lens space whose exterior contains an essential once-punctured torus
belongs to one of six families, each cut out by closed-form surgery data.
Modules:

  lenspaces  lens space normalization and slope arithmetic
  surgery    framed links, first homology, core orders, blow-downs
  mcg        mapping classes of the once-punctured torus
  gridknots  grid number one knots and torus knot witnesses
  fatgraph   essential arc configurations and their complementary faces
  families   the atlas itself, with an independent verification battery
  cli        the command line front end
"""

from .families import (FamilyId, FamilyInstance, VerificationReport,
                       coincidence_scan, family_space, filling_table,
                       gof_filling, instantiate, torus_knot_types, verify)
from .fatgraph import (ArcSystemConfig, Circle, FaceReport, Region,
                       ScharlemannCycle, enumerate_configs, faces,
                       parity_check_closed_form, scharlemann_cycles)
from .gridknots import (find_torus_grid_witness, grid1_order,
                        torus_knot_sequence)
from .lenspaces import (INFINITY, LensSpace, Slope, is_homeomorphic,
                        normalize, q_orbit)
from .mcg import (IDENTITY, TWIST_X, TWIST_Y, MappingWord, NTClass,
                  TorusMapClass, bundle_h1, classify, conjugacy_invariant,
                  evaluate, lens_filling_word)
from .surgery import (INFINITE, UNFILLED, AbelianGroup, FramedLink,
                      blow_down, chain3, core_order, h1, h1_presentation,
                      link_from_json, link_to_json, unknot, whitehead)

__version__ = "0.1.0"
