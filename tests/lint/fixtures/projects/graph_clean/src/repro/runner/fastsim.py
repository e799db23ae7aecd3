class CountedSim:
    def __init__(self, cfg):
        self.cfg = cfg
