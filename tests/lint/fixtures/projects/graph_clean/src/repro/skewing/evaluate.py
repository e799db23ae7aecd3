from repro.runner.fastsim import CountedSim


def window(cfg):
    return CountedSim(cfg)  # calling row: skewing.evaluate -> fastsim
