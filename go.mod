module nbrallgather

go 1.23
