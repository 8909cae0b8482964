include Replica
