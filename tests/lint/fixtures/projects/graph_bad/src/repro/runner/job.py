from repro.sim.engine import Engine  # sanctioned import edge: job -> engine


def simulate(cfg):
    return Engine(cfg)  # but job may not call the primitive
