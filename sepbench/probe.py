"""Set-up probe: import the program, warm every layer up, print "ready".

The benchmark times this script from process start to the "ready" line.
The program's ``src`` directory must be on PYTHONPATH.
"""


def warm_up() -> None:
    """One small call into every layer, so that lazy set-up is done."""
    import sepkit
    import sepkit.cli
    from sepkit.formulas import ehrhart_1mn, ehrhart_bipartite

    sig = sepkit.Signature((1, 2))
    sepkit.closed_form_hstar(sig)
    sepkit.hstar_triangulation(sig)
    sepkit.hstar_oracle(sig)
    sepkit.build_basis(sig)
    sepkit.is_cl(ehrhart_bipartite(2, 2))
    sepkit.solve_recursion(ehrhart_1mn(1, 2), ehrhart_bipartite(1, 2), [ehrhart_bipartite(1, 1)])
    sepkit.cli.build_parser()


if __name__ == "__main__":
    warm_up()
    print("ready", flush=True)
