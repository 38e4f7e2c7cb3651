module metaupdate

go 1.23
