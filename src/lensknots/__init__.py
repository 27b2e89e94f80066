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

Names are imported from these modules; the package binds none.
"""
