"""The published catalogue of rational projective flows, pinned as data.

Each row is (name, flow text, vector-field text, |level|, orbit invariant).
The rows are the benchmark's own copy: the references do not come from
``projflow.zoo()``, so a change to the catalogue in the library cannot move
them.  ``workloads.catalogue`` re-derives every vector field and invariant
here from its flow with sympy before any run.

``SEED_FAILURES`` records what the vector-field route got wrong when the
benchmark was defined, by failure kind; the flow route got every row right.
Of the wrong verdicts, phi_sph_inf, Psi and Phi_1_prime were reported
NonRational; phi1_1, phi2_1 and phi2_3 had the right level but an orbit
invariant that the flow does not preserve.  They stay in the workload and
count against ``decided_share``.
"""

CATALOGUE = (
    ("phi_pr", "u = x/(x + y + 1); v = y/(x + y + 1)",
     "(-x^2 - x*y, -x*y - y^2)", 0, "x/y"),
    ("phi0_1",
     "u = (x^3 + x*y^2)/(x^2*y + x*y^2 + x^2 + y^2); "
     "v = (x^2*y + y^3)/(x^2*y + x*y^2 + x^2 + y^2)",
     "((-x^3*y - x^2*y^2)/(x^2 + y^2), (-x^2*y^2 - x*y^3)/(x^2 + y^2))",
     0, "x/y"),
    ("phi0_2", "u = x*y/(x^2 + y); v = y^2/(x^2 + y)",
     "(-x^3/y, -x^2)", 0, "x/y"),
    ("phi0_3", "u = (x^2 + x*y)/(x*y + x + y); v = (x*y + y^2)/(x*y + x + y)",
     "(-x^2*y/(x + y), -x*y^2/(x + y))", 0, "x/y"),
    ("phi_sph_inf", "u = x^2 - 2*x*y + y^2 + x; v = x^2 - 2*x*y + y^2 + y",
     "(x^2 - 2*x*y + y^2, x^2 - 2*x*y + y^2)", 1, "x - y"),
    ("phi_sph_1",
     "u = (x^2 + y^2 + 2*x)/(x^2 + y^2 + 2*x + 2*y + 2); "
     "v = (x^2 + y^2 + 2*y)/(x^2 + y^2 + 2*x + 2*y + 2)",
     "(-1/2*x^2 - x*y + 1/2*y^2, 1/2*x^2 - x*y - 1/2*y^2)",
     1, "(x^2 + y^2)/(x - y)"),
    ("phi_tor_inf", "u = x; v = y/(y + 1)", "(0, -y^2)", 1, "x"),
    ("phi_tor_1", "u = x/(x + 1); v = y/(y + 1)", "(-x^2, -y^2)",
     1, "x*y/(x - y)"),
    ("phi1_1",
     "u = (x^2*y^4 + 2*x*y^5 + y^6 + 2*x^3*y^2 + 2*x^2*y^3 + x^4)"
     "/(x^2*y^2 + x^3); v = (x*y^3 + y^4 + x^2*y)/(x*y^2 + x^2)",
     "((x*y^2 + 2*y^3)/x, y^4/x^2)", 1, "(x*y + y^2)/x"),
    ("Psi",
     "u = (-2*x^3*y - 2*x^2*y^2 - x^3 + 2*x^2*y - x*y^2)"
     "/(x^3 - x*y^2 - x^2 + 2*x*y - y^2); "
     "v = (2*x^2*y^2 + 2*x*y^3 + x^2*y - 2*x*y^2 + y^3)"
     "/(x^2*y - y^3 + x^2 - 2*x*y + y^2)",
     "((x^4 + 2*x^3*y + x^2*y^2)/(x^2 - 2*x*y + y^2), "
     "(x^2*y^2 + 2*x*y^3 + y^4)/(x^2 - 2*x*y + y^2))", 1, "x*y/(x - y)"),
    ("Phi_1",
     "u = (1/2*x^2 + x*y + 1/2*y^2 + x)/(x^2 + 2*x*y + y^2 + 2*x + 2*y + 1); "
     "v = (1/2*x^2 + x*y + 1/2*y^2 + y)/(x^2 + 2*x*y + y^2 + 2*x + 2*y + 1)",
     "(-3/2*x^2 - x*y + 1/2*y^2, 1/2*x^2 - x*y - 3/2*y^2)",
     1, "(x^2 + 2*x*y + y^2)/(x - y)"),
    ("Phi_1_prime",
     "u = (1/2*x^2 - 1/2*y^2 + x)/(x + y + 1); "
     "v = (-1/2*x^2 + 1/2*y^2 + y)/(x + y + 1)",
     "(-1/2*x^2 - x*y - 1/2*y^2, -1/2*x^2 - x*y - 1/2*y^2)", 1, "x - y"),
    ("phi_-1", "u = x/(y^2 + 2*y + 1); v = y/(y + 1)", "(-2*x*y, -y^2)",
     1, "y^2/x"),
    ("phi_2", "u = x*y + x; v = y/(y + 1)", "(x*y, -y^2)", 2, "x*y"),
    ("phi2_1",
     "u = (y^6 + 3*x*y^4 + 3*x^2*y^2 + x^3)/x^2; v = (y^3 + x*y)/x",
     "(3*y^2, y^3/x)", 2, "y^3/x"),
    ("phi2_2",
     "u = (x^2 + x*y + x)/(x^2 + x*y + 2*x + 1); "
     "v = y/(x^3 + 2*x^2*y + x*y^2 + 3*x^2 + 3*x*y + 3*x + y + 1)",
     "(-x^2 + x*y, -3*x*y - y^2)", 2, "(x^3 + 2*x^2*y + x*y^2)/y"),
    ("phi2_3",
     "u = (y^6 + 3*x*y^4 + 3*x^2*y^2 + x^3)"
     "/(y^6 + 4*x*y^4 + 4*x^2*y^2 + 2*x*y^3 + 4*x^2*y + x^2); "
     "v = (y^3 + x*y)/(y^3 + 2*x*y + x)",
     "(-4*x*y + 3*y^2, (-2*x*y^2 + y^3)/x)", 2, "y^4/(x^2 - x*y)"),
    ("Phi_2",
     "u = (1/2*x^3 + 3/2*x^2*y + 3/2*x*y^2 + 1/2*y^3 + x^2 + 2*x*y + y^2 + x)"
     "/(x^3 + 3*x^2*y + 3*x*y^2 + y^3 + 3*x^2 + 6*x*y + 3*y^2 + 3*x + 3*y + 1);"
     " v = (1/2*x^3 + 3/2*x^2*y + 3/2*x*y^2 + 1/2*y^3 + x^2 + 2*x*y + y^2 + y)"
     "/(x^3 + 3*x^2*y + 3*x*y^2 + y^3 + 3*x^2 + 6*x*y + 3*y^2 + 3*x + 3*y + 1)",
     "(-2*x^2 - x*y + y^2, x^2 - x*y - 2*y^2)",
     2, "(x^3 + 3*x^2*y + 3*x*y^2 + y^3)/(x - y)"),
    ("phi_3", "u = x*y^2 + 2*x*y + x; v = y/(y + 1)", "(2*x*y, -y^2)",
     3, "x*y^2"),
)

SEED_FAILURES = {
    "exception": ("Phi_1", "phi2_2", "Phi_2"),
    "exit_code": ("phi0_1", "phi_sph_1"),
    "wrong_verdict": ("phi_sph_inf", "Psi", "Phi_1_prime",
                      "phi1_1", "phi2_1", "phi2_3"),
}
